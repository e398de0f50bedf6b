package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aces"
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
