package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aces"
)

func TestLocalMode(t *testing.T) {
	if err := run([]string{
		"-mode", "local", "-pes", "10", "-nodes", "2",
		"-policy", "aces", "-duration", "4", "-scale", "40",
	}); err != nil {
		t.Fatal(err)
	}
}

// freeLoopbackAddr asks the kernel for an unused loopback port and
// releases it for the code under test to bind.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func TestSendRecvOverLoopback(t *testing.T) {
	addr := freeLoopbackAddr(t)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-mode", "recv", "-listen", addr})
	}()
	// The sender does not redial, and on a loaded box the receiver
	// goroutine may not have bound yet: retry until a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sendErr := run([]string{"-mode", "send", "-connect", addr, "-rate", "20000", "-count", "500"})
		if sendErr == nil {
			break
		}
		select {
		case err := <-errCh:
			t.Fatalf("recv ended before any send succeeded: %v (last send error: %v)", err, sendErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("send never succeeded: %v", sendErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("recv: %v", err)
	}
}

func TestUnknownMode(t *testing.T) {
	if err := run([]string{"-mode", "wat"}); err == nil {
		t.Errorf("unknown mode accepted")
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
	doc := struct {
		Topology *aces.Topology `json:"topology"`
		CPU      []float64      `json:"cpu"`
	}{topo, []float64{0.4, 0.4, 0.4, 0.4}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
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
