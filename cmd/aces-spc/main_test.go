package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aces"
	"aces/internal/doccmd"
	"aces/internal/graph"
)

func TestLocalMode(t *testing.T) {
	if err := run([]string{
		"-mode", "local", "-pes", "10", "-nodes", "2",
		"-policy", "aces", "-duration", "4", "-scale", "40",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownMode(t *testing.T) {
	for _, mode := range []string{"wat", "send", "recv"} {
		if err := run([]string{"-mode", mode}); err == nil {
			t.Errorf("unknown mode %q accepted", mode)
		}
	}
	if err := run([]string{"-mode", "local", "-policy", "bogus"}); err == nil {
		t.Errorf("unknown policy accepted")
	}
}

func TestNodeModePairOverLoopback(t *testing.T) {
	// Shared topology: a 4-stage chain split across nodes 0 and 1, with
	// tier-1 targets attached (node mode requires them).
	topo := aces.NewTopology(2, 50)
	svc := aces.ServiceParams{T0: 0.002, T1: 0.002, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
	prev := aces.PEID(-1)
	for i := 0; i < 4; i++ {
		w := 0.0
		if i == 3 {
			w = 1
		}
		id := topo.AddPE(aces.PE{Service: svc, Node: aces.NodeID(i / 2), Weight: w})
		if prev >= 0 {
			if err := topo.Connect(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	if err := topo.AddSource(aces.Source{Stream: 1, Target: 0, Rate: 80, Burst: aces.BurstSpec{Kind: aces.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := graph.Write(&doc, topo, []float64{0.4, 0.4, 0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	const addr = "127.0.0.1:39272"
	var wg sync.WaitGroup
	wg.Add(2)
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() {
		defer wg.Done()
		errA <- run([]string{"-mode", "node", "-topo", path, "-local-nodes", "0",
			"-listen", addr, "-duration", "6", "-scale", "30"})
	}()
	go func() {
		defer wg.Done()
		errB <- run([]string{"-mode", "node", "-topo", path, "-local-nodes", "1",
			"-peer", addr, "-duration", "6", "-scale", "30"})
	}()
	wg.Wait()
	if err := <-errA; err != nil {
		t.Fatalf("listener partition: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("dialer partition: %v", err)
	}
}

func TestNodeModeValidation(t *testing.T) {
	if err := run([]string{"-mode", "node"}); err == nil {
		t.Errorf("node mode without topo accepted")
	}
	if err := run([]string{"-mode", "node", "-topo", "x.json"}); err == nil {
		t.Errorf("node mode without local-nodes accepted")
	}
	if err := run([]string{"-mode", "node", "-topo", "x.json", "-local-nodes", "0"}); err == nil {
		t.Errorf("node mode without listen/peer accepted")
	}
	if err := run([]string{"-mode", "node", "-topo", "x.json", "-local-nodes", "0", "-listen", ":1", "-peer", "y"}); err == nil {
		t.Errorf("node mode with both listen and peer accepted")
	}
}

// The flags are what a recipe, a CI step or a test passes; anything else
// is a library default or a fixed value in runNode.
func TestFlagCount(t *testing.T) {
	fs, _ := newFlagSet()
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > 20 {
		t.Errorf("aces-spc registers %d flags, want at most 20", n)
	}
}

// The documents that tell a reader how to run aces-spc, and its own
// package doc, must show only command lines it accepts: every code-block
// line passes parseFlags, cross-flag rules included, and every inline code
// span that names aces-spc names only its flags. CHANGES.md is history and
// is not checked.
func TestDocsNameRealCommands(t *testing.T) {
	fs, _ := newFlagSet()
	var cmds []doccmd.Command
	for _, doc := range []string{"main.go", "../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"} {
		c, err := doccmd.Scan(doc, "aces-spc")
		if err != nil {
			t.Fatal(err)
		}
		if len(c) == 0 {
			t.Errorf("%s: no aces-spc command found; the scanner or the doc changed", doc)
		}
		cmds = append(cmds, c...)
	}
	for _, c := range cmds {
		if c.Block {
			if _, err := parseFlags(c.Args); err != nil {
				t.Errorf("%s: aces-spc %s: %v", c.At, strings.Join(c.Args, " "), err)
			}
			continue
		}
		for _, a := range c.Args {
			name, ok := strings.CutPrefix(a, "-")
			name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
			// Skip values, including negative numbers such as -1.
			if !ok || name == "" || (name[0] >= '0' && name[0] <= '9') {
				continue
			}
			if fs.Lookup(name) == nil {
				t.Errorf("%s: aces-spc has no flag -%s", c.At, name)
			}
		}
	}
}
