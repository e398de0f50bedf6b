package spc

import (
	"testing"
	"time"

	"aces/internal/graph"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/transport"
)

// chain3 builds a 6-stage chain spanning three nodes (two stages each):
// the smallest topology whose dissemination tree has a root, a relay and
// a leaf.
func chain3(t *testing.T) *graph.Topology {
	t.Helper()
	topo := graph.New(3, 50)
	svc := detService(0.002)
	prev := sdo.NilPE
	for i := 0; i < 6; i++ {
		w := 0.0
		if i == 5 {
			w = 1
		}
		id := topo.AddPE(graph.PE{Service: svc, Node: sdo.NodeID(i / 2), Weight: w})
		if prev != sdo.NilPE {
			if err := topo.Connect(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: 0, Rate: 100, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	return topo
}

// tcpPair returns a connected (client, server) conn pair. Neither side
// sends a hello: plain Links need none.
func tcpPair(t *testing.T) (*transport.Conn, *transport.Conn) {
	t.Helper()
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srvCh := make(chan *transport.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			srvCh <- nil
			return
		}
		srvCh <- c
	}()
	cli, err := transport.Dial(lis.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvCh
	if srv == nil {
		t.Fatal("no server conn")
	}
	return cli, srv
}

// Three processes in a chain root→mid→leaf over real TCP: an epoch set
// at the root must reach the leaf through the mid relay (the root sends
// ONE frame), and acks must climb back so the root learns both
// descendants' applied epochs.
func TestHierRelayThreeProcessChain(t *testing.T) {
	topo := chain3(t)
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}

	rootMidCli, rootMidSrv := tcpPair(t) // root holds cli, mid holds srv
	midLeafCli, midLeafSrv := tcpPair(t) // mid holds cli, leaf holds srv
	conns := []*transport.Conn{rootMidCli, rootMidSrv, midLeafCli, midLeafSrv}
	defer func() {
		for _, cn := range conns {
			cn.Close()
		}
	}()

	rootLink := NewLink(rootMidCli) // root → mid
	midUp := NewLink(rootMidSrv)    // mid → root
	midDown := NewLink(midLeafCli)  // mid → leaf
	leafLink := NewLink(midLeafSrv) // leaf → mid

	rootRouter := NewRouter()
	rootRouter.AddPeer(rootLink, 2, 3, 4, 5)
	midRouter := NewRouter()
	midRouter.AddPeer(midUp, 0, 1)
	midRouter.AddPeer(midDown, 4, 5)
	leafRouter := NewRouter()
	leafRouter.AddPeer(leafLink, 0, 1, 2, 3)

	mk := func(node sdo.NodeID, up RemoteLink) *Cluster {
		c, err := NewCluster(Config{
			Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 1, Seed: 4,
			LocalNodes: []sdo.NodeID{node}, Uplink: up,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	root := mk(0, rootRouter)
	mid := mk(1, midRouter)
	leaf := mk(2, leafRouter)

	// Tree wiring: root fans to mid only; mid relays to leaf and acks to
	// root; leaf acks to mid.
	root.EnableHierRelay(0, nil, rootLink)
	mid.EnableHierRelay(1, midUp, midDown)
	leaf.EnableHierRelay(2, leafLink)

	// Serve loops pump frames into each cluster.
	serve := func(l *Link, c *Cluster) { go func() { _ = l.Serve(c) }() }
	serve(rootLink, root)
	serve(midUp, mid)
	serve(midDown, mid)
	serve(leafLink, leaf)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	next := []float64{0.5, 0.3, 0.5, 0.3, 0.5, 0.3}
	if err := root.SetTargets(1, next); err != nil {
		t.Fatal(err)
	}
	waitFor("epoch 1 at leaf", func() bool { return leaf.TargetsEpoch() == 1 })
	if mid.TargetsEpoch() != 1 {
		t.Errorf("mid applied epoch %d, want 1", mid.TargetsEpoch())
	}
	waitFor("acks at root", func() bool {
		acked := root.AckedEpochs()
		return acked[1] == 1 && acked[2] == 1
	})
	if lag := root.EpochLag(); lag != 0 {
		t.Errorf("root epoch lag %d after full acks, want 0", lag)
	}
	// The root addressed ONE child; the relay addressed one more. That is
	// the point of the tree: dissemination cost per process is its
	// fan-out, not the deployment size.
	if n := root.TargetFramesSent(); n != 1 {
		t.Errorf("root sent %d target frames, want 1", n)
	}
	if n := mid.TargetFramesSent(); n != 1 {
		t.Errorf("mid relayed %d target frames, want 1", n)
	}
	if n := leaf.TargetFramesSent(); n != 0 {
		t.Errorf("leaf sent %d target frames, want 0", n)
	}

	// A duplicate dissemination must not re-relay (stale at mid) but must
	// still re-ack.
	root.BroadcastTargets()
	waitFor("re-ack after duplicate", func() bool { return root.TargetFramesSent() == 2 })
	time.Sleep(50 * time.Millisecond)
	if n := mid.TargetFramesSent(); n != 1 {
		t.Errorf("mid re-relayed a stale epoch (%d frames)", n)
	}

	// Targets and lag surface in the run report.
	rep := root.Report(1)
	if rep.TargetFramesSent != 2 {
		t.Errorf("report frames sent = %d, want 2", rep.TargetFramesSent)
	}
	if rep.TargetEpochLag != 0 {
		t.Errorf("report epoch lag = %d, want 0", rep.TargetEpochLag)
	}
}

// Two plain Links, no hello sent by anyone: a target set disseminated
// through the tree reaches the child, and the child's ack reaches the
// root. Nothing on a Link waits for, or is gated by, a hello.
func TestPlainLinksDisseminateWithoutHello(t *testing.T) {
	topo := chain3(t)
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	cli, srv := tcpPair(t)
	defer cli.Close()
	defer srv.Close()
	down, up := NewLink(cli), NewLink(srv)
	mk := func(nodes []sdo.NodeID, link *Link) *Cluster {
		c, err := NewCluster(Config{
			Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 1, Seed: 7,
			LocalNodes: nodes, Uplink: link,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	root := mk([]sdo.NodeID{0}, down)
	child := mk([]sdo.NodeID{1, 2}, up)
	root.EnableHierRelay(0, nil, down)
	child.EnableHierRelay(1, up)
	go func() { _ = down.Serve(root) }()
	go func() { _ = up.Serve(child) }()

	if err := root.SetTargets(1, []float64{0.5, 0.3, 0.5, 0.3, 0.5, 0.3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for child.TargetsEpoch() != 1 || root.AckedEpochs()[1] != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("child at epoch %d, root acked %v: targets or ack never crossed a plain Link",
				child.TargetsEpoch(), root.AckedEpochs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Epoch lag must surface while a descendant is behind: feed the root an
// ack for an old epoch and check the gauge math.
func TestHierEpochLagTracksSlowDescendant(t *testing.T) {
	topo := chain3(t)
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	root, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 1, Seed: 5,
		LocalNodes: []sdo.NodeID{0}, Uplink: &memLink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	root.EnableHierRelay(0, nil)
	if err := root.applyTargets(0, 3, cpu); err != nil {
		t.Fatal(err)
	}
	root.InjectTargetAckFrom(1, 0, 3, nil)
	root.InjectTargetAckFrom(2, 0, 1, nil)
	if lag := root.EpochLag(); lag != 2 {
		t.Errorf("epoch lag = %d, want 2 (origin 2 stuck at epoch 1)", lag)
	}
	root.InjectTargetAckFrom(2, 0, 3, nil)
	if lag := root.EpochLag(); lag != 0 {
		t.Errorf("epoch lag = %d after catch-up, want 0", lag)
	}
	// Regressions (an out-of-order old ack) must not roll the view back.
	root.InjectTargetAckFrom(2, 0, 1, nil)
	if lag := root.EpochLag(); lag != 0 {
		t.Errorf("stale ack rolled lag back to %d", lag)
	}
}

// The hierarchical retarget loop: a single-process cluster re-solving
// through hier.Solve must accept epochs and report solve telemetry.
func TestStartRetargetHier(t *testing.T) {
	topo := chain3(t)
	cpu := []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	c, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 50, Warmup: 0.5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	epochs := make(chan uint64, 64)
	if err := c.StartRetarget(RetargetConfig{
		Every: 1,
		Hier: &HierRetarget{
			Regions:  3,
			Sweeps:   2,
			Deadline: 2 * time.Second,
		},
		OnRetarget: func(epoch uint64, _ []float64) {
			select {
			case epochs <- epoch:
			default:
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	var got uint64
	for got < 2 {
		select {
		case e := <-epochs:
			got = e
		case <-deadline:
			t.Fatalf("hier retarget loop produced %d epochs in 5s", got)
		}
	}
	end := c.Now()
	c.Stop()
	rep := c.Report(end)
	if rep.TargetEpoch < 2 {
		t.Errorf("applied epoch %d, want ≥2", rep.TargetEpoch)
	}
	if rep.SolveMillis <= 0 {
		t.Errorf("report solve_ms = %g, want > 0", rep.SolveMillis)
	}
}
