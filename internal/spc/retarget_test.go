package spc

import (
	"errors"
	"math"
	"testing"
	"time"

	"aces/internal/graph"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/streamsim"
)

// waitVirtual parks the test goroutine until the cluster's virtual clock
// passes `until`.
func waitVirtual(t *testing.T, c *Cluster, until float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.Now() < until {
		if time.Now().After(deadline) {
			t.Fatalf("virtual clock stuck before %g (now %g)", until, c.Now())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSetTargetsValidatesAndOrdersEpochs(t *testing.T) {
	topo := buildChain(t, 2, 1, 0.002, 100)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{0.5, 0.5}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()

	if e := c.TargetsEpoch(); e != 0 {
		t.Fatalf("fresh cluster at epoch %d, want 0", e)
	}
	if err := c.SetTargets(1, []float64{0.4, 0.6}); err != nil {
		t.Fatalf("SetTargets(1): %v", err)
	}
	epoch, cpu := c.Targets()
	if epoch != 1 || cpu[0] != 0.4 || cpu[1] != 0.6 {
		t.Errorf("Targets() = %d %v", epoch, cpu)
	}
	if c.Retargets() != 1 {
		t.Errorf("Retargets = %d, want 1", c.Retargets())
	}

	// Stale and duplicate epochs must be rejected without side effects.
	for _, stale := range []uint64{0, 1} {
		if err := c.SetTargets(stale, []float64{0.9, 0.1}); !errors.Is(err, ErrStaleEpoch) {
			t.Errorf("SetTargets(epoch=%d) = %v, want ErrStaleEpoch", stale, err)
		}
	}
	if _, cpu := c.Targets(); cpu[0] != 0.4 {
		t.Errorf("stale epoch mutated targets: %v", cpu)
	}

	// Malformed vectors: wrong length, negative, NaN.
	if err := c.SetTargets(2, []float64{0.5}); err == nil {
		t.Errorf("short vector accepted")
	}
	if err := c.SetTargets(2, []float64{-0.1, 0.5}); err == nil {
		t.Errorf("negative target accepted")
	}
	if err := c.SetTargets(2, []float64{math.NaN(), 0.5}); err == nil {
		t.Errorf("NaN target accepted")
	}
	if e := c.TargetsEpoch(); e != 1 {
		t.Errorf("failed SetTargets advanced the epoch to %d", e)
	}

	// InjectTermTargets is the receive path: silent on stale, applied on new.
	c.InjectTermTargets(0, 1, []float64{0.9, 0.1}) // stale — dropped
	if _, cpu := c.Targets(); cpu[0] != 0.4 {
		t.Errorf("stale inject applied: %v", cpu)
	}
	c.InjectTermTargets(0, 5, []float64{0.7, 0.3})
	if e, cpu := c.Targets(); e != 5 || cpu[0] != 0.7 {
		t.Errorf("inject not applied: epoch %d cpu %v", e, cpu)
	}

	// The caller's vector must be copied, not aliased.
	v := []float64{0.1, 0.9}
	if err := c.SetTargets(6, v); err != nil {
		t.Fatal(err)
	}
	v[0] = 42
	if _, cpu := c.Targets(); cpu[0] != 0.1 {
		t.Errorf("target vector aliased caller memory: %v", cpu)
	}
}

// TestSetTargetsZeroTargetForgetsPE covers the Feedback.Forget wiring: a
// PE retargeted to zero CPU must vanish from the Eq. 8 board instead of
// leaving a ghost r_max that throttles (or, once it goes silent, a
// cold-start +Inf that unthrottles) its upstreams forever.
func TestSetTargetsZeroTargetForgetsPE(t *testing.T) {
	topo := buildChain(t, 2, 1, 0.002, 100)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{0.5, 0.5}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()

	// PE 1 (the egress) advertised r_max = 40, as a remote peer would.
	c.InjectFeedback(1, 40)
	if got := c.fb.outputBound([]int32{1}); got != 40 {
		t.Fatalf("outputBound = %g, want 40", got)
	}

	// Retarget PE 1 to zero: decommissioned, its advertisement forgotten.
	if err := c.SetTargets(1, []float64{1.0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := c.fb.outputBound([]int32{1}); got != 0 {
		t.Errorf("outputBound after forget = %g, want 0 (nothing to send to)", got)
	}

	// A revived PE re-registers through the normal publish path.
	if err := c.SetTargets(2, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	c.InjectFeedback(1, 7)
	if got := c.fb.outputBound([]int32{1}); got != 7 {
		t.Errorf("outputBound after revival = %g, want 7", got)
	}
}

// TestSetTargetsCrossSubstrateEquivalence retargets the same topology
// mid-run on both substrates — streamsim.Engine.SetTargets in virtual
// event time, spc.Cluster.SetTargets on the live runtime — and checks the
// two recovered throughputs agree. This extends the simulator's
// TestSetTargetsMidRunRecovers to the live half of the stack: same skewed
// start, same corrective targets, same measurement window.
func TestSetTargetsCrossSubstrateEquivalence(t *testing.T) {
	topo := buildChain(t, 2, 1, 0.002, 150)
	skewed := []float64{0.8, 0.1} // stage 1 starved: 50/s capacity
	good := []float64{0.45, 0.45} // 225/s per stage — carries the 150/s

	eng, err := streamsim.New(streamsim.Config{
		Topo: topo, Policy: policy.ACES, CPU: append([]float64(nil), skewed...),
		Duration: 30, Seed: 5, Warmup: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Sim().At(15, func() {
		if err := eng.SetTargets(good); err != nil {
			t.Errorf("engine SetTargets: %v", err)
		}
	})
	simRep := eng.Run()

	cl, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: skewed,
		TimeScale: 20, Warmup: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	waitVirtual(t, cl, 15)
	if err := cl.SetTargets(1, good); err != nil {
		t.Errorf("cluster SetTargets: %v", err)
	}
	waitVirtual(t, cl, 30)
	end := cl.Now()
	cl.Stop()
	liveRep := cl.Report(end)

	if liveRep.TargetEpoch != 1 || liveRep.Retargets != 1 {
		t.Errorf("report epoch/retargets = %d/%d, want 1/1", liveRep.TargetEpoch, liveRep.Retargets)
	}
	// Hitless: the retarget must not have restarted or parked anything.
	if liveRep.PERestarts != 0 || liveRep.BreakersOpen != 0 {
		t.Errorf("retarget disturbed PEs: restarts=%d breakers=%d", liveRep.PERestarts, liveRep.BreakersOpen)
	}
	// Both substrates measure post-recovery (t ≥ 20) throughput; the live
	// runtime rides OS timers, so allow a wider band than the simulator's
	// own regression but demand genuine agreement.
	lo, hi := 0.8*simRep.WeightedThroughput, 1.2*simRep.WeightedThroughput
	if liveRep.WeightedThroughput < lo || liveRep.WeightedThroughput > hi {
		t.Errorf("substrates disagree: live wt %.1f vs sim wt %.1f (want within ±20%%)",
			liveRep.WeightedThroughput, simRep.WeightedThroughput)
	}
}

// TestStartRetargetAdaptsToCostStep runs the whole adaptive loop in one
// process: two PEs contend for one node, the high-weight PE's cost
// quadruples mid-run, and the calibrate→re-solve→retarget loop must move
// its CPU target to where the post-step optimum actually is. The deployed
// topology never learns the new cost — only calibration can.
func TestStartRetargetAdaptsToCostStep(t *testing.T) {
	topo := graph.New(1, 50)
	a := topo.AddPE(graph.PE{Service: detService(0.002), Weight: 8, Node: 0})
	b := topo.AddPE(graph.PE{Service: detService(0.002), Weight: 1, Node: 0})
	if err := topo.AddSource(graph.Source{Stream: 1, Target: a, Rate: 100, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(graph.Source{Stream: 2, Target: b, Rate: 1000, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		t.Fatal(err)
	}
	// Pre-step optimum: a serves its full 100/s on 0.2 CPU, b soaks the
	// rest. After a's cost steps 2 ms → 8 ms it needs 0.8 CPU for the same
	// 100/s, and with weight 8 the re-solve must give it that.
	cpu := []float64{0.2, 0.8}

	c, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: 20, Seed: 3,
		Processors: map[sdo.PEID]Processor{
			a: NewStepCost(100, 0.002, 0.008, 6),
			b: NewStepCost(101, 0.002, 0.002, 0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartRetarget(RetargetConfig{Every: 0.5, Lambda: 0.7, MinSamples: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.StartRetarget(RetargetConfig{}); err == nil {
		t.Errorf("RetargetConfig without Every accepted")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	waitVirtual(t, c, 20)
	c.Stop()

	epoch, got := c.Targets()
	if epoch == 0 {
		t.Fatalf("adaptive loop never retargeted")
	}
	if got[a] < 0.55 {
		t.Errorf("post-step target for stepped PE = %.3f, want ≈0.8 (loop did not track the cost step; targets %v, epoch %d)",
			got[a], got, epoch)
	}
	if got[a] <= got[b] {
		t.Errorf("weight-8 PE got %.3f ≤ weight-1 PE's %.3f", got[a], got[b])
	}
	if sum := got[a] + got[b]; sum > 1+1e-9 {
		t.Errorf("node oversubscribed: Σc = %g", sum)
	}
	// The loop's solve must be seeded from the incumbent (warm start) and
	// calibrated measurements — cross-check against an offline solve on
	// the true post-step topology.
	oracle := *topo
	oracle.PEs = append([]graph.PE(nil), topo.PEs...)
	oracle.PEs[a].Service = detService(0.008)
	want, err := optimize.Solve(&oracle, optimize.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[a]-want.CPU[a]) > 0.15 {
		t.Errorf("adaptive target %.3f vs oracle %.3f for stepped PE", got[a], want.CPU[a])
	}
}

// TestRetargetColdSolveCounter pins the cold-start surfacing: the
// deployment-time target set is logical (no replica matrix), so the FIRST
// elastic re-solve has no WarmStartReplica and must cold-start — silently,
// before Allocation.ColdStart existed. The loop must count it once, then
// warm-start from the replica-form epoch it just installed; the monolithic
// path always has the incumbent logical vector and never cold-starts.
func TestRetargetColdSolveCounter(t *testing.T) {
	topo := elasticChain(t, 200, 0.002)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{0.3, 0.4, 0.3}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()
	cal := optimize.NewCalibrator(topo, 0, 0)
	oc := optimize.Config{Utility: optimize.LinearUtility{}, MaxIters: 200}

	// Monolithic re-solve: warm-started from the incumbent logical vector.
	c.retargetOnce(cal, RetargetConfig{Every: 1, Optimize: oc})
	if got := c.ColdSolves(); got != 0 {
		t.Fatalf("monolithic re-solve cold-started: ColdSolves = %d, want 0", got)
	}

	// First elastic re-solve: the applied set is logical, cur.rep == nil.
	c.retargetOnce(cal, RetargetConfig{Every: 1, Elastic: true, Optimize: oc})
	if got := c.ColdSolves(); got != 1 {
		t.Fatalf("first elastic re-solve: ColdSolves = %d, want 1", got)
	}

	// Second elastic re-solve warm-starts from the installed replica set.
	c.retargetOnce(cal, RetargetConfig{Every: 1, Elastic: true, Optimize: oc})
	if got := c.ColdSolves(); got != 1 {
		t.Fatalf("second elastic re-solve: ColdSolves = %d, want 1 (still)", got)
	}

	if rep := c.Report(c.Now()); rep.ColdSolves != 1 {
		t.Errorf("Report.ColdSolves = %d, want 1", rep.ColdSolves)
	}
}
