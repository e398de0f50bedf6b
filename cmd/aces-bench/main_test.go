package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aces/internal/doccmd"
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

// The documents that tell a reader how to run aces-bench must name only
// flags and experiments it has: every command line they show parses with
// the real flag set and selects only names in the step table. CHANGES.md
// is history and is not checked.
func TestDocsNameRealCommands(t *testing.T) {
	for _, doc := range []string{"../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"} {
		cmds, err := doccmd.Scan(doc, "aces-bench")
		if err != nil {
			t.Fatal(err)
		}
		if len(cmds) == 0 {
			t.Errorf("%s: no aces-bench command found; the scanner or the doc changed", doc)
		}
		for _, c := range cmds {
			if _, err := parseFlags(c.Args); err != nil {
				t.Errorf("%s: aces-bench %s: %v", c.At, strings.Join(c.Args, " "), err)
			}
		}
	}
}
