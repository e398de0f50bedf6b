package spc

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"aces/internal/graph"
	"aces/internal/policy"
	"aces/internal/sdo"
)

// elasticChain builds a 1-node chain whose middle PE declares two replica
// slots (both on node 0): ingress → hot(×2 slots) → egress.
func elasticChain(t *testing.T, srcRate, hotCost float64) *graph.Topology {
	t.Helper()
	topo := graph.New(1, 50)
	a := topo.AddPE(graph.PE{Service: detService(0.0001)})
	b := topo.AddPE(graph.PE{Service: detService(hotCost), MaxReplicas: 2, ReplicaNodes: []sdo.NodeID{0}})
	c := topo.AddPE(graph.PE{Service: detService(0.0001), Weight: 1})
	if err := topo.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(b, c); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: a, Rate: srcRate, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestRepKeySlotZeroIsPEID(t *testing.T) {
	for _, j := range []int32{0, 1, 17, 1<<20 - 1} {
		if repKey(j, 0) != j {
			t.Errorf("repKey(%d, 0) = %d", j, repKey(j, 0))
		}
	}
	seen := map[int32]bool{}
	for j := int32(0); j < 8; j++ {
		for r := int32(0); r < 8; r++ {
			k := repKey(j, r)
			if seen[k] {
				t.Fatalf("repKey collision at (%d, %d)", j, r)
			}
			seen[k] = true
		}
	}
}

func TestSetReplicaTargetsValidatesAndRoutes(t *testing.T) {
	topo := elasticChain(t, 100, 0.004)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{0.1, 0.5, 0.1}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()

	// Shape and value validation.
	if err := c.SetReplicaTargets(1, [][]float64{{0.1}, {0.2}}); err == nil {
		t.Errorf("short matrix accepted")
	}
	if err := c.SetReplicaTargets(1, [][]float64{{0.1}, {0.2}, {0.1, 0.1}}); err == nil {
		t.Errorf("wrong slot count accepted")
	}
	if err := c.SetReplicaTargets(1, [][]float64{{0.1}, {math.NaN(), 0.2}, {0.1}}); err == nil {
		t.Errorf("NaN target accepted")
	}
	if got := c.ActiveReplicas(1); got != 1 {
		t.Errorf("ActiveReplicas before scale-out = %d, want 1", got)
	}

	// Scale out: both slots of the hot PE active.
	rep := [][]float64{{0.1}, {0.3, 0.3}, {0.1}}
	if err := c.SetReplicaTargets(1, rep); err != nil {
		t.Fatal(err)
	}
	if got := c.ActiveReplicas(1); got != 2 {
		t.Errorf("ActiveReplicas = %d, want 2", got)
	}
	epoch, snap := c.ReplicaTargetsSnapshot()
	if epoch != 1 || snap[1][0] != 0.3 || snap[1][1] != 0.3 {
		t.Errorf("snapshot = %d %v", epoch, snap)
	}
	snap[1][0] = 42 // the snapshot must be a copy
	if _, again := c.ReplicaTargetsSnapshot(); again[1][0] != 0.3 {
		t.Errorf("snapshot aliased internal state")
	}
	// The logical view collapses the group.
	if _, cpu := c.Targets(); math.Abs(cpu[1]-0.6) > 1e-12 {
		t.Errorf("logical target = %g, want 0.6", cpu[1])
	}

	// Ring routing: both slots must appear, and a keyed SDO must stick to
	// one slot no matter how often it is routed.
	ts := c.targets.Load()
	slots := map[int32]int{}
	for _, ref := range ts.route[1] {
		slots[ref.rep]++
	}
	if len(slots) != 2 || slots[0] == 0 || slots[1] == 0 {
		t.Fatalf("ring does not cover both active slots: %v", slots)
	}
	first := ts.pick(1, sdo.SDO{Key: 99}).rep
	for i := 0; i < 32; i++ {
		if got := ts.pick(1, sdo.SDO{Key: 99}).rep; got != first {
			t.Fatalf("keyed SDO bounced between replicas: %d then %d", first, got)
		}
	}
	// Distinct keys must spread across slots (not all land on one).
	hit := map[int32]bool{}
	for k := uint64(1); k <= 64; k++ {
		hit[ts.pick(1, sdo.SDO{Key: k}).rep] = true
	}
	if len(hit) != 2 {
		t.Errorf("64 distinct keys all routed to one replica")
	}

	// Stale epochs are rejected; InjectTermReplicaTargets drops them silently.
	if err := c.SetReplicaTargets(1, rep); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("stale epoch = %v, want ErrStaleEpoch", err)
	}
	c.InjectTermReplicaTargets(0, 1, [][]float64{{9}, {9, 9}, {9}})
	if _, snap := c.ReplicaTargetsSnapshot(); snap[1][0] != 0.3 {
		t.Errorf("stale inject applied: %v", snap)
	}

	// Scale in: deactivating slot 1 forgets its feedback key so no ghost
	// r_max survives the decommission.
	c.InjectFeedback(repKey(1, 1), 123)
	if err := c.SetReplicaTargets(2, [][]float64{{0.1}, {0.6, 0}, {0.1}}); err != nil {
		t.Fatal(err)
	}
	if got := c.ActiveReplicas(1); got != 1 {
		t.Errorf("ActiveReplicas after scale-in = %d, want 1", got)
	}
	if got := c.fb.outputBound([]int32{repKey(1, 1)}); got != 0 {
		t.Errorf("deactivated slot still advertises r_max = %g, want 0 (forgotten)", got)
	}
	// And the group bound now watches only the surviving slot.
	c.InjectFeedback(repKey(1, 0), 55)
	ts = c.targets.Load()
	if got := c.fb.groupedOutputBound(ts.groupKeys, []int32{1}); got != 55 {
		t.Errorf("grouped bound = %g, want 55 (primary only)", got)
	}
}

// TestElasticScaleOutCarriesLoadPrimaryCannot is the single-process data
// plane check: a hot PE whose demand exceeds one node's capacity must
// carry (nearly) the full offered load once its second replica slot
// activates on the OTHER node — replication inside one node cannot beat
// that node's simplex, so the extra slot lives on node 1.
func TestElasticScaleOutCarriesLoadPrimaryCannot(t *testing.T) {
	topo := graph.New(2, 50)
	a := topo.AddPE(graph.PE{Service: detService(0.0001), Node: 0})
	b := topo.AddPE(graph.PE{Service: detService(0.004), Node: 0, MaxReplicas: 2, ReplicaNodes: []sdo.NodeID{1}})
	cc := topo.AddPE(graph.PE{Service: detService(0.0001), Node: 1, Weight: 1})
	if err := topo.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(b, cc); err != nil {
		t.Fatal(err)
	}
	// 250/s × 4 ms = 1.0 CPU of demand on the hot PE: more than any single
	// slot can get, comfortably within two slots' 0.6 + 0.6.
	if err := topo.AddSource(graph.Source{Stream: 1, Target: a, Rate: 250, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	run := func(scaleOut bool) float64 {
		c, err := NewCluster(Config{
			Topo: topo, Policy: policy.ACES, CPU: []float64{0.2, 0.55, 0.2},
			TimeScale: 20, Warmup: 2, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if scaleOut {
			if err := c.SetReplicaTargets(1, [][]float64{{0.1}, {0.6, 0.6}, {0.1}}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := c.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		if scaleOut && rep.ActiveReplicas != 2 {
			t.Errorf("report ActiveReplicas = %d, want 2", rep.ActiveReplicas)
		}
		return rep.WeightedThroughput
	}
	frozen := run(false)
	elastic := run(true)
	if frozen > 0.65*250 {
		t.Errorf("frozen run carried %g/s; the hot PE should cap it well below 250/s", frozen)
	}
	if elastic < 0.85*250 {
		t.Errorf("elastic run carried %g/s, want ≥ 212/s (scale-out did not absorb the load; frozen %g)", elastic, frozen)
	}
}

// TestPeerRecoveryReopensBounds is the regression for the recovered-peer
// staleness bug: a peer that advertised a congested r_max just before
// dying must come back unconstrained — clearing only the down-mark left
// the stale advertisement pinning upstream output bounds near zero until
// a fresh feedback frame happened to arrive.
func TestPeerRecoveryReopensBounds(t *testing.T) {
	topo := graph.New(2, 50)
	a := topo.AddPE(graph.PE{Service: detService(0.002), Node: 0})
	b := topo.AddPE(graph.PE{Service: detService(0.002), Node: 1, Weight: 1})
	if err := topo.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: a, Rate: 100, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: []float64{0.5, 0.5},
		LocalNodes: []sdo.NodeID{0}, Uplink: &memLink{},
		Health:    &HealthConfig{Every: 0.1, SuspectAfter: 0.3, DeadAfter: 0.6},
		TimeScale: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()

	// The dying peer's last advertisement: nearly zero capacity.
	c.det.Beat(1, 0)
	c.InjectFeedback(int32(b), 0.01)
	if got := c.fb.outputBound([]int32{int32(b)}); got != 0.01 {
		t.Fatalf("advertised bound = %g, want 0.01", got)
	}

	// Silence past DeadAfter: the verdict flips and the bound closes.
	c.det.Check(1.0)
	if got := c.fb.outputBound([]int32{int32(b)}); got != 0 {
		t.Errorf("bound while peer down = %g, want 0", got)
	}

	// The peer heals. The bound must reopen IMMEDIATELY to cold-start
	// unconstrained — not stay pinned at the stale 0.01.
	c.det.Beat(1, 1.2)
	c.det.Check(1.2)
	got := c.fb.outputBound([]int32{int32(b)})
	if !math.IsInf(got, 1) {
		t.Errorf("bound after recovery = %g, want +Inf (stale advertisement must be erased)", got)
	}
	// Fresh feedback re-constrains normally.
	c.InjectFeedback(int32(b), 40)
	if got := c.fb.outputBound([]int32{int32(b)}); got != 40 {
		t.Errorf("bound after fresh feedback = %g, want 40", got)
	}
}

// TestStopDuringRetargetRace is the regression for the retarget-vs-
// shutdown race: Stop used to close PE buffers while the retarget loop
// could still be mid-solve and install targets into a dying cluster. Run
// with -race; 100 iterations of stop-at-random-phase cover the window.
func TestStopDuringRetargetRace(t *testing.T) {
	topo := buildChain(t, 2, 1, 0.002, 100)
	for i := 0; i < 100; i++ {
		c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{0.4, 0.4}, TimeScale: 50, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.StartRetarget(RetargetConfig{Every: 0.02, Lambda: 0.7, MinSamples: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%7) * time.Millisecond)
		c.Stop()
	}
}

// TestConcurrentTargetInvariants races every control-plane entry point —
// logical retargets, replica retargets, feedback injection, replica SDO
// injection, reports — against the running data plane. Run with -race; the
// assertions check the epoch stays monotone and the final state coherent.
func TestConcurrentTargetInvariants(t *testing.T) {
	topo := elasticChain(t, 200, 0.002)
	c, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: []float64{0.2, 0.4, 0.2},
		TimeScale: 20, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for e := uint64(1); ; e += 2 {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.SetTargets(e, []float64{0.2, 0.4, 0.2})
		}
	}()
	go func() {
		defer wg.Done()
		for e := uint64(2); ; e += 2 {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.SetReplicaTargets(e, [][]float64{{0.2}, {0.2, 0.2}, {0.2}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.InjectFeedback(repKey(1, int32(i%2)), float64(i%100))
			c.InjectReplicaSDO(1, int32(i%2), sdo.SDO{Stream: 1, Seq: uint64(i), Key: uint64(i % 13), Origin: time.Now()})
			c.InjectReplicaSDO(1, 7, sdo.SDO{Stream: 1, Seq: uint64(i), Origin: time.Now()}) // out-of-range slot degrades
		}
	}()
	var lastEpoch uint64
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep := c.Report(c.Now())
			if rep.TargetEpoch < lastEpoch {
				t.Errorf("epoch went backwards: %d after %d", rep.TargetEpoch, lastEpoch)
				return
			}
			lastEpoch = rep.TargetEpoch
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.Stop()

	epoch, _ := c.Targets()
	if epoch == 0 {
		t.Errorf("no retarget landed under contention")
	}
}

// TestSchedulerTickZeroAllocsElastic re-proves the zero-alloc tick gate
// with replication enabled: grouped bounds, per-slot targets and dormant-
// slot skips must all ride the immutable target set without allocating.
func TestSchedulerTickZeroAllocsElastic(t *testing.T) {
	topo := elasticChain(t, 100, 0.002)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{0.2, 0.3, 0.2}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()
	// Both slots of the hot PE active, so the tick exercises the grouped
	// bound over a real (non-singleton) group.
	if err := c.SetReplicaTargets(1, [][]float64{{0.2}, {0.15, 0.15}, {0.2}}); err != nil {
		t.Fatal(err)
	}
	peers := c.nodes[0]
	scr := newSchedScratch(len(peers))
	dt := c.cfg.Dt
	now := c.clock.Now()
	// Warm-up tick: folds the epoch into the buckets and inserts the
	// per-slot feedback keys (both one-time costs by design).
	c.schedulerTick(peers, scr, now, dt)
	allocs := testing.AllocsPerRun(100, func() {
		now += dt
		c.schedulerTick(peers, scr, now, dt)
	})
	if allocs != 0 {
		t.Errorf("schedulerTick with replication allocates %.1f times per tick, want 0", allocs)
	}

	// And with a dormant slot (scale-in applied): the dormant branch must
	// also be allocation-free.
	if err := c.SetReplicaTargets(2, [][]float64{{0.2}, {0.3, 0}, {0.2}}); err != nil {
		t.Fatal(err)
	}
	c.schedulerTick(peers, scr, now, dt)
	allocs = testing.AllocsPerRun(100, func() {
		now += dt
		c.schedulerTick(peers, scr, now, dt)
	})
	if allocs != 0 {
		t.Errorf("schedulerTick with a dormant replica allocates %.1f times per tick, want 0", allocs)
	}
}
