// Package doccmd finds the command lines a document shows for one of the
// repository's commands, so that command's tests can check each one
// against its real flag set.
package doccmd

import (
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Command is one invocation of a command that a document shows.
type Command struct {
	At   string   // file:line
	Args []string // the arguments after the command name
	// Block is true for a code-block line, which shows a whole command
	// line, and false for an inline code span, which may show only the
	// flag a sentence is about.
	Block bool
}

var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// file is one document being scanned for invocations of one command.
type file struct {
	path, name string
	lines      []string
	cmds       []Command
}

// add records text as an invocation when its first word is the command,
// bare or as a path to an executable (./x, /x), optionally after `go run`.
// A trailing `&` is dropped.
func (f *file) add(line int, text string, block bool) {
	w := strings.Fields(text)
	if len(w) >= 3 && w[0] == "go" && w[1] == "run" {
		w = w[2:]
	}
	if len(w) == 0 || (w[0] != f.name && !(strings.HasSuffix(w[0], "/"+f.name) &&
		(strings.HasPrefix(w[0], "./") || strings.HasPrefix(w[0], "/")))) {
		return
	}
	if w[len(w)-1] == "&" {
		w = w[:len(w)-1]
	}
	f.cmds = append(f.cmds, Command{fmt.Sprintf("%s:%d", f.path, line), w[1:], block})
}

// code adds code line i, joined with its `\` continuations (every line
// stripped of prefix) and cut at a ` #` comment, and returns the index of
// the last line it consumed.
func (f *file) code(i int, prefix string) int {
	start := i
	l := strings.TrimPrefix(f.lines[i], prefix)
	for strings.HasSuffix(l, `\`) && i+1 < len(f.lines) && strings.HasPrefix(f.lines[i+1], prefix) {
		i++
		l = strings.TrimSuffix(l, `\`) + " " + strings.TrimPrefix(f.lines[i], prefix)
	}
	if c := strings.Index(l, " #"); c >= 0 {
		l = l[:c]
	}
	f.add(start+1, l, true)
	return i
}

// Scan returns every invocation of the command name that the file at path
// shows. In a Go file those are the code blocks (tab-indented lines) of
// its package doc comment. In a markdown file they are the lines of fenced
// code blocks, and the inline code spans everywhere else; a span may wrap
// lines, so spans are matched per paragraph.
func Scan(path, name string) ([]Command, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &file{path: path, name: name, lines: strings.Split(string(data), "\n")}
	goFile := strings.HasSuffix(path, ".go")
	var para []string
	paraLine := 0
	flushPara := func() {
		text := strings.Join(para, "\n")
		for _, m := range codeSpanRE.FindAllStringSubmatchIndex(text, -1) {
			line := paraLine + strings.Count(text[:m[0]], "\n")
			f.add(line, strings.ReplaceAll(text[m[2]:m[3]], "\n", " "), false)
		}
		para = nil
	}
	fenced := false
	for i := 0; i < len(f.lines); i++ {
		switch l := f.lines[i]; {
		case goFile && strings.HasPrefix(l, "package "):
			return f.cmds, nil
		case goFile:
			if strings.HasPrefix(l, "//\t") {
				i = f.code(i, "//\t")
			}
		case strings.HasPrefix(strings.TrimSpace(l), "```"):
			flushPara()
			fenced = !fenced
		case fenced:
			i = f.code(i, "")
		case strings.TrimSpace(l) == "":
			flushPara()
		default:
			if para == nil {
				paraLine = i + 1
			}
			para = append(para, l)
		}
	}
	flushPara()
	return f.cmds, nil
}
