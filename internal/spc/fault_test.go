package spc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aces/internal/graph"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/transport"
)

// forkTopo is a 3-PE fork: source → PE0 on node 0, which feeds a local
// egress PE1 (node 0) and a remote egress PE2 (node 1). Partitioning at
// the node boundary gives the local partition its own egress, so the test
// can observe it delivering while the uplink is down.
func forkTopo(t *testing.T) *graph.Topology {
	t.Helper()
	topo := graph.New(2, 50)
	svc := detService(0.001)
	p0 := topo.AddPE(graph.PE{Service: svc, Node: 0})
	p1 := topo.AddPE(graph.PE{Service: svc, Node: 0, Weight: 1})
	p2 := topo.AddPE(graph.PE{Service: svc, Node: 1, Weight: 1})
	if err := topo.Connect(p0, p1); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(p0, p2); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: p0, Rate: 200, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	return topo
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

// TestPartitionSurvivesPeerOutage runs a partitioned 2-cluster deployment
// over real TCP with fault injection on the uplink: a mid-run stall and a
// sever-with-outage/reconnect cycle. The local partition must keep
// delivering post-warmup SDOs throughout, the scheduler must keep ticking
// (virtual time advances — no transport I/O on the control loop), and the
// frames lost at the uplink must surface as in-flight loss and link
// counters in the report.
func TestPartitionSurvivesPeerOutage(t *testing.T) {
	topo := forkTopo(t)
	cpu := []float64{0.4, 0.4, 0.4}

	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	// A's dial path is fault-injected: the test can stall the live pipe,
	// sever it, and hold the "network" down so redials fail.
	var flaky atomic.Pointer[transport.FlakyConn]
	var netDown atomic.Bool
	dialA := func() (*transport.Conn, error) {
		if netDown.Load() {
			return nil, errors.New("injected outage")
		}
		raw, err := net.DialTimeout("tcp", lis.Addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := transport.WrapFlaky(raw)
		flaky.Store(f)
		return transport.NewConn(f), nil
	}
	// Batching on both ends, so the outage/stall/sever cycle below also
	// exercises batch frames and their per-member loss accounting.
	linkA := NewResilientLink(dialA, transport.ResilientOptions{
		QueueSize:    64,
		WriteTimeout: 50 * time.Millisecond,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		BatchMax:     32,
	})
	defer linkA.Close()
	linkB := NewResilientLink(func() (*transport.Conn, error) {
		return lis.Accept()
	}, transport.ResilientOptions{
		QueueSize:    64,
		WriteTimeout: 50 * time.Millisecond,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		BatchMax:     32,
	})
	defer linkB.Close()

	a, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 0.5, Seed: 1,
		LocalNodes: []sdo.NodeID{0}, Uplink: linkA,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 0.5, Seed: 1,
		LocalNodes: []sdo.NodeID{1}, Uplink: linkB,
	})
	if err != nil {
		t.Fatal(err)
	}
	var serveWG sync.WaitGroup
	serveWG.Add(2)
	go func() {
		defer serveWG.Done()
		_ = linkA.Serve(a)
	}()
	go func() {
		defer serveWG.Done()
		_ = linkB.Serve(b)
	}()

	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}

	// Phase 1 — healthy warmup: both egresses deliver.
	waitUntil(t, 10*time.Second, func() bool {
		return a.DeliveredByPE()[1] > 20 && b.DeliveredByPE()[2] > 20
	}, "healthy cross-partition delivery")

	// Phase 2 — stall: the peer stops draining the pipe. The write
	// deadline must fail the frame and the link must recover on its own.
	flaky.Load().Stall(300 * time.Millisecond)
	localBefore := a.DeliveredByPE()[1]
	virtBefore := a.Now()
	time.Sleep(200 * time.Millisecond)
	virtAfter := a.Now()
	if a.DeliveredByPE()[1] <= localBefore {
		t.Errorf("local egress froze during uplink stall: %d → %d", localBefore, a.DeliveredByPE()[1])
	}
	// 200 ms wall at 20× is 4 virtual seconds; a transport-blocked
	// scheduler would stop advancing grants and virtual time observations.
	if advance := virtAfter - virtBefore; advance < 1 {
		t.Errorf("virtual time advanced only %.2fs during stall; scheduler appears blocked", advance)
	}

	// Phase 3 — sever with the network held down: redials fail, the
	// outbox overflows, and the losses are billed to the sender.
	netDown.Store(true)
	flaky.Load().Sever()
	localBefore = a.DeliveredByPE()[1]
	time.Sleep(200 * time.Millisecond)
	if a.DeliveredByPE()[1] <= localBefore {
		t.Errorf("local egress froze during severed uplink: %d → %d", localBefore, a.DeliveredByPE()[1])
	}

	// Phase 4 — heal: the link must reconnect and remote delivery resume.
	reconBefore := linkA.Stats().Reconnects
	remoteBefore := b.DeliveredByPE()[2]
	netDown.Store(false)
	waitUntil(t, 10*time.Second, func() bool {
		return linkA.Stats().Reconnects > reconBefore && b.DeliveredByPE()[2] > remoteBefore
	}, "reconnect and post-sever remote delivery")

	endA := a.Now()
	a.Stop()
	b.Stop()
	repA := a.Report(endA)

	// The frames lost during the outage are in-flight loss at the sender
	// (outbox overflow returned ErrOutboxFull to the emitter, writer
	// failures were billed via NoteUplinkLoss).
	if repA.InFlightDrops == 0 {
		t.Errorf("severed uplink produced no in-flight loss accounting")
	}
	if len(repA.Links) != 1 {
		t.Fatalf("report carries %d link entries, want 1", len(repA.Links))
	}
	ls := repA.Links[0]
	if ls.FramesSent == 0 || ls.FramesDropped == 0 || ls.Reconnects == 0 {
		t.Errorf("link stats = %+v, want nonzero sent, dropped and reconnects", ls)
	}

	lis.Close()
	linkA.Close()
	linkB.Close()
	serveWG.Wait()
}

// TestResilientLinkNonBlockingUnderDeadPeer asserts the emit-path
// contract in isolation: with no peer at all, SendSDO and SendFeedback
// return immediately (loss, not back-pressure).
func TestResilientLinkNonBlockingUnderDeadPeer(t *testing.T) {
	link := NewResilientLink(func() (*transport.Conn, error) {
		return nil, errors.New("no peer")
	}, transport.ResilientOptions{QueueSize: 8, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	defer link.Close()

	start := time.Now()
	for i := 0; i < 1000; i++ {
		link.SendSDO(2, sdo.SDO{Seq: uint64(i), Origin: time.Now(), Hops: 1})
		link.SendFeedback(1, 3.5)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("2000 sends on a dead link took %v; must never block", el)
	}
	if st := link.Stats(); st.FramesDropped == 0 {
		t.Errorf("dead link dropped nothing: %+v", st)
	}
}
