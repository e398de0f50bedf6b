package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"aces"
	"aces/internal/doccmd"
	"aces/internal/graph"
)

// writeTopo produces a tiny solved topology document for the -topo path.
func writeTopo(t *testing.T) string {
	t.Helper()
	topo, err := aces.Generate(aces.DefaultGenConfig(12, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := aces.Optimize(topo, aces.OptimizeConfig{MaxIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := graph.Write(&doc, topo, alloc.CPU); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithTopoFile(t *testing.T) {
	path := writeTopo(t)
	for _, pol := range []string{"aces", "udp", "lockstep", "loadshed"} {
		if err := run([]string{"-topo", path, "-policy", pol, "-duration", "4"}); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}

func TestRunGeneratedWithOverrides(t *testing.T) {
	if err := run([]string{
		"-pes", "12", "-nodes", "3", "-policy", "aces",
		"-duration", "4", "-buffer", "20", "-lambda-s", "5",
		"-iters", "80", "-json",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-policy", "bogus"}); err == nil {
		t.Errorf("unknown policy accepted")
	}
	if err := run([]string{"-topo", "/does/not/exist.json"}); err == nil {
		t.Errorf("missing topo file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-topo", bad}); err == nil {
		t.Errorf("empty topo document accepted")
	}
}

// The flags are what a recipe, a CI step or a test passes; the rest of
// SimConfig stays a library option.
func TestFlagCount(t *testing.T) {
	fs, _ := newFlagSet()
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > 10 {
		t.Errorf("aces-sim registers %d flags, want at most 10", n)
	}
}

// Every aces-sim command line the docs and the package doc show passes
// parseFlags, and every inline span names only real flags.
func TestDocsNameRealCommands(t *testing.T) {
	fs, _ := newFlagSet()
	problems, err := doccmd.Check("aces-sim",
		[]string{"main.go", "../../README.md", "../../.claude/skills/verify/SKILL.md"},
		fs, func(args []string) error { _, err := parseFlags(args); return err })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
