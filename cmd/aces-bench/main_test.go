package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestQuickSelectedExperiments(t *testing.T) {
	csvDir := filepath.Join(t.TempDir(), "csv")
	// fig2 + stability are the cheap ones; they exercise the step loop,
	// selection logic and CSV writing end to end.
	if err := run([]string{"-quick", "-duration", "6", "-exp", "fig2,stability", "-csv", csvDir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(csvDir, "fanout.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "policy,consumer,rate") {
		t.Errorf("fanout CSV malformed: %s", data)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	// A name the step table does not know — a typo, or an experiment that
	// has since moved elsewhere — must fail before anything runs, and the
	// error must list what is valid.
	for _, exp := range []string{"nosuch", "fig2,nosuch", ""} {
		err := run([]string{"-quick", "-exp", exp})
		if err == nil {
			t.Errorf("-exp %q accepted", exp)
			continue
		}
		for _, name := range expNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-exp %q: error %q does not list %q", exp, err, name)
			}
		}
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Errorf("bad flag accepted")
	}
}

// docCommandRE finds an aces-bench invocation — `aces-bench` or
// `./cmd/aces-bench`, but not a path such as cmd/aces-bench/ — and
// captures its arguments.
var docCommandRE = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./cmd/)?aces-bench(?:\s+(.*))?$`)

var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// docCommand is one aces-bench command line a document shows.
type docCommand struct {
	at   string // file:line
	args []string
}

// docCommands returns every aces-bench command line a markdown document
// shows: lines of fenced code blocks (with `\` continuations joined and
// ` #` comments cut), and inline code spans everywhere else. A span may
// wrap lines, so spans are matched per paragraph.
func docCommands(t *testing.T, path string) []docCommand {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []docCommand
	add := func(line int, text string) {
		if m := docCommandRE.FindStringSubmatch(text); m != nil {
			cmds = append(cmds, docCommand{fmt.Sprintf("%s:%d", path, line), strings.Fields(m[1])})
		}
	}
	var para []string
	paraLine := 0
	flushPara := func() {
		text := strings.Join(para, "\n")
		for _, m := range codeSpanRE.FindAllStringSubmatchIndex(text, -1) {
			line := paraLine + strings.Count(text[:m[0]], "\n")
			add(line, strings.ReplaceAll(text[m[2]:m[3]], "\n", " "))
		}
		para = nil
	}
	lines := strings.Split(string(data), "\n")
	fenced := false
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "```"):
			flushPara()
			fenced = !fenced
		case !fenced && strings.TrimSpace(l) == "":
			flushPara()
		case !fenced:
			if para == nil {
				paraLine = i + 1
			}
			para = append(para, l)
		default:
			start := i + 1
			for strings.HasSuffix(l, `\`) && i+1 < len(lines) {
				i++
				l = strings.TrimSuffix(l, `\`) + " " + lines[i]
			}
			if c := strings.Index(l, " #"); c >= 0 {
				l = l[:c]
			}
			add(start, l)
		}
	}
	flushPara()
	return cmds
}

// The documents that tell a reader how to run aces-bench must name only
// flags and experiments it has: every command line they show parses with
// the real flag set and selects only names in the step table. CHANGES.md
// is history and is not checked.
func TestDocsNameRealCommands(t *testing.T) {
	for _, doc := range []string{"../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"} {
		cmds := docCommands(t, doc)
		if len(cmds) == 0 {
			t.Errorf("%s: no aces-bench command found; the scanner or the doc changed", doc)
		}
		for _, c := range cmds {
			if _, err := parseFlags(c.args); err != nil {
				t.Errorf("%s: aces-bench %s: %v", c.at, strings.Join(c.args, " "), err)
			}
		}
	}
}
