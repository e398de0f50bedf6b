package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aces/internal/graph"
)

func TestGenerateValidateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "topo.json")
	dotPath := filepath.Join(dir, "topo.dot")
	if err := run([]string{
		"-pes", "20", "-nodes", "4", "-seed", "7",
		"-solve", "-iters", "120",
		"-o", topoPath, "-dot", dotPath,
	}); err != nil {
		t.Fatal(err)
	}
	topo, cpu, err := graph.ReadFile(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumPEs() != 20 || len(cpu) != 20 {
		t.Fatalf("document incomplete: pes=%d cpu=%d", topo.NumPEs(), len(cpu))
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph aces") {
		t.Errorf("DOT output malformed")
	}
	// Validation path on the file we just wrote.
	if err := run([]string{"-validate", topoPath}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", bad}); err == nil {
		t.Errorf("garbage JSON accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", empty}); err == nil {
		t.Errorf("empty document accepted")
	}
	if err := run([]string{"-validate", filepath.Join(dir, "missing.json")}); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-pes", "1", "-nodes", "1"}); err == nil {
		t.Errorf("1-PE topology accepted")
	}
}
