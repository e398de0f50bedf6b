package spc

import (
	"sync"
	"testing"
	"time"

	"aces/internal/obs"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/transport"
)

// TestCrossNodeTraceOverTCP is the tentpole acceptance test: a two-process
// partitioned deployment over a real TCP bridge must yield at least one
// complete trace whose spans come from BOTH partitions, stitched by the
// trace ID carried inside the routed wire frames.
func TestCrossNodeTraceOverTCP(t *testing.T) {
	topo := splitChain(t)
	cpu := []float64{0.4, 0.4, 0.4, 0.4}

	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	connBCh := make(chan *transport.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			connBCh <- nil
			return
		}
		connBCh <- c
	}()
	connA, err := transport.Dial(lis.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	connB := <-connBCh
	if connB == nil {
		t.Fatal("no server conn")
	}
	defer connB.Close()

	// Trace everything; distinct salts so a collision can never fake a
	// cross-node stitch. B gets a telemetry registry too, so the test also
	// proves the scheduler publishes gauges and flushes snapshot frames.
	trA := obs.NewTracer(1, 1<<14, 101)
	trB := obs.NewTracer(1, 1<<14, 202)
	sinkB := obs.NewMemorySink(0)
	regB := obs.NewRegistry(sinkB)

	linkA, linkB := NewLink(connA), NewLink(connB)
	a, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 2, Seed: 4,
		LocalNodes: []sdo.NodeID{0}, Uplink: linkA, Tracer: trA,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 2, Seed: 4,
		LocalNodes: []sdo.NodeID{1}, Uplink: linkB, Tracer: trB, Telemetry: regB,
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
	time.Sleep(450 * time.Millisecond)
	a.Stop()
	b.Stop()
	connA.Close()
	connB.Close()
	serveWG.Wait()

	merged := obs.MergeTraces(trA.Traces(0), trB.Traces(0))
	stitched := 0
	for _, tr := range merged {
		if !tr.Complete {
			continue
		}
		sawNode := map[int32]bool{}
		for _, s := range tr.Spans {
			sawNode[s.Node] = true
		}
		if sawNode[0] && sawNode[1] {
			stitched++
		}
	}
	if stitched == 0 {
		t.Fatalf("no complete cross-node trace stitched across the TCP bridge (merged %d traces, A recorded %d spans, B %d)",
			len(merged), trA.SpanCount(), trB.SpanCount())
	}

	// Telemetry: cluster B's scheduler must have published its PEs' gauges
	// and flushed at least one snapshot frame to the sink.
	frames := sinkB.Frames()
	if len(frames) == 0 {
		t.Fatalf("no telemetry snapshot frames flushed")
	}
	keys := map[string]bool{}
	for _, p := range frames[len(frames)-1].Points {
		keys[p.Key] = true
	}
	for _, want := range []string{
		"buffer_occupancy{node=1,pe=2}",
		"rmax{node=1,pe=3}",
		"tokens{node=1,pe=2}",
		"cpu_grant{node=1,pe=3}",
		"cpu_lent{node=1,pe=3}",
	} {
		if !keys[want] {
			t.Errorf("telemetry snapshot missing %q (have %d keys)", want, len(keys))
		}
	}
}

// TestTraceTerminalDropSpans checks that the three loss sites visible to a
// single process — unroutable inject, overflow inject, shed inject — all
// end a sampled trace with the right terminal event.
func TestTraceTerminalDropSpans(t *testing.T) {
	topo := splitChain(t)
	cpu := []float64{0.4, 0.4, 0.4, 0.4}
	tr := obs.NewTracer(1, 64, 7)
	a, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 20, Warmup: 0.001, Seed: 5,
		LocalNodes: []sdo.NodeID{0}, Uplink: &memLink{}, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unroutable: PE 3 is not local.
	a.InjectSDO(3, sdo.SDO{Origin: time.Now(), Hops: 1, Trace: 42})
	// Out of range entirely.
	a.InjectSDO(99, sdo.SDO{Origin: time.Now(), Hops: 2, Trace: 43})
	// Async uplink loss.
	a.NoteUplinkLoss(3, 44)

	traces := tr.Traces(0)
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	events := map[uint64]obs.Event{}
	for _, trc := range traces {
		if !trc.Complete {
			t.Errorf("trace %d not complete after terminal loss", trc.ID)
		}
		events[trc.ID] = trc.Spans[0].Event
	}
	if events[42] != obs.EventDrop || events[43] != obs.EventDrop {
		t.Errorf("unroutable injects = %v/%v, want drop/drop", events[42], events[43])
	}
	if events[44] != obs.EventUplinkDrop {
		t.Errorf("uplink loss event = %v, want uplink_drop", events[44])
	}
	// Unsampled SDOs must not generate spans.
	before := tr.SpanCount()
	a.InjectSDO(99, sdo.SDO{Origin: time.Now()})
	if tr.SpanCount() != before {
		t.Errorf("unsampled SDO recorded a span")
	}
}
