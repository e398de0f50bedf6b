package controller

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTokenBucketEarnSpendCap(t *testing.T) {
	b := NewTokenBucket(0.2, 5)
	if !almostEq(b.Level(), 0.2, 1e-12) {
		t.Errorf("initial level = %g, want one tick", b.Level())
	}
	for i := 0; i < 100; i++ {
		b.Refill()
	}
	if !almostEq(b.Level(), 1.0, 1e-12) {
		t.Errorf("capped level = %g, want 5 ticks × 0.2 = 1.0", b.Level())
	}
	b.Spend(0.7)
	if !almostEq(b.Level(), 0.3, 1e-12) {
		t.Errorf("level after spend = %g", b.Level())
	}
	b.Spend(10)
	if b.Level() != 0 {
		t.Errorf("overspend should clamp to zero, got %g", b.Level())
	}
	if b.Rate() != 0.2 {
		t.Errorf("Rate = %g", b.Rate())
	}
	// A refund undoes a spend, stops at the cap, and ignores nonsense.
	b.Refund(0.4)
	if !almostEq(b.Level(), 0.4, 1e-12) {
		t.Errorf("level after refund = %g, want 0.4", b.Level())
	}
	b.Refund(-1)
	if !almostEq(b.Level(), 0.4, 1e-12) {
		t.Errorf("negative refund moved the level to %g", b.Level())
	}
	b.Refund(10)
	if !almostEq(b.Level(), 1.0, 1e-12) {
		t.Errorf("refund past the cap = %g, want the cap 1.0", b.Level())
	}
}

func TestTokenBucketSetRatePreservesHorizon(t *testing.T) {
	b := NewTokenBucket(0.2, 5)
	b.SetRate(0.4)
	for i := 0; i < 100; i++ {
		b.Refill()
	}
	if !almostEq(b.Level(), 2.0, 1e-12) {
		t.Errorf("after rate change cap = %g, want 0.4 × 5 = 2.0", b.Level())
	}
	// Shrinking the rate clamps the stored level.
	b.SetRate(0.01)
	if b.Level() > 0.05+1e-12 {
		t.Errorf("level %g exceeds new cap", b.Level())
	}
}

func TestTokenBucketValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for negative rate")
		}
	}()
	NewTokenBucket(-1, 1)
}

func TestPlanACESUndersubscribed(t *testing.T) {
	pes := []PETick{
		{Target: 0.3, Tokens: 0.3, Occupancy: 10, Work: 0.2, Cap: math.Inf(1)},
		{Target: 0.3, Tokens: 0.3, Occupancy: 5, Work: 0.1, Cap: math.Inf(1)},
	}
	alloc := PlanACES(pes, 1)
	if !almostEq(alloc[0], 0.2, 1e-12) || !almostEq(alloc[1], 0.1, 1e-12) {
		t.Errorf("undersubscribed plan = %v, want wants", alloc)
	}
}

func TestPlanACESRespectsCaps(t *testing.T) {
	pes := []PETick{
		{Tokens: 0.9, Occupancy: 50, Work: 0.8, Cap: 0.1},              // downstream bound gates
		{Tokens: 0.05, Occupancy: 50, Work: 0.8, Cap: 1},               // tokens gate
		{Tokens: 0.9, Occupancy: 50, Work: 0.02, Cap: 1},               // work gates
		{Tokens: 0.9, Occupancy: 50, Work: 0.8, Cap: 1, Blocked: true}, // blocked
	}
	alloc := PlanACES(pes, 1)
	if !almostEq(alloc[0], 0.1, 1e-12) {
		t.Errorf("cap-gated alloc = %g", alloc[0])
	}
	if !almostEq(alloc[1], 0.05, 1e-12) {
		t.Errorf("token-gated alloc = %g", alloc[1])
	}
	if !almostEq(alloc[2], 0.02, 1e-12) {
		t.Errorf("work-gated alloc = %g", alloc[2])
	}
	if alloc[3] != 0 {
		t.Errorf("blocked PE allocated %g", alloc[3])
	}
}

func TestPlanACESOversubscribedSharesByOccupancy(t *testing.T) {
	// Two PEs each wanting 0.8 on a full node: shares follow occupancy 3:1.
	pes := []PETick{
		{Tokens: 0.8, Occupancy: 30, Work: 0.8, Cap: math.Inf(1)},
		{Tokens: 0.8, Occupancy: 10, Work: 0.8, Cap: math.Inf(1)},
	}
	alloc := PlanACES(pes, 1)
	if !almostEq(alloc[0]+alloc[1], 1, 1e-9) {
		t.Fatalf("total = %g, want 1", alloc[0]+alloc[1])
	}
	if !almostEq(alloc[0], 0.75, 1e-9) || !almostEq(alloc[1], 0.25, 1e-9) {
		t.Errorf("shares = %v, want 3:1 split", alloc)
	}
}

func TestPlanACESProgressiveFilling(t *testing.T) {
	// PE 0 saturates its small want; the residual flows to the others by
	// occupancy, not evaporating.
	pes := []PETick{
		{Tokens: 0.1, Occupancy: 100, Work: 0.1, Cap: math.Inf(1)},
		{Tokens: 0.9, Occupancy: 10, Work: 0.9, Cap: math.Inf(1)},
		{Tokens: 0.9, Occupancy: 10, Work: 0.9, Cap: math.Inf(1)},
	}
	alloc := PlanACES(pes, 1)
	total := alloc[0] + alloc[1] + alloc[2]
	if !almostEq(total, 1, 1e-9) {
		t.Errorf("total = %g, want 1 (work-conserving under load)", total)
	}
	if !almostEq(alloc[0], 0.1, 1e-9) {
		t.Errorf("saturated PE got %g, want 0.1", alloc[0])
	}
	if !almostEq(alloc[1], 0.45, 1e-9) || !almostEq(alloc[2], 0.45, 1e-9) {
		t.Errorf("residual split = %v", alloc)
	}
}

func TestPlanACESZeroOccupancyStillBounded(t *testing.T) {
	// All occupancies zero (idle node): wants are zero work, plan must be
	// all-zero and must not divide by zero.
	pes := []PETick{
		{Tokens: 0.5, Occupancy: 0, Work: 0, Cap: math.Inf(1)},
		{Tokens: 0.5, Occupancy: 0, Work: 0, Cap: math.Inf(1)},
	}
	alloc := PlanACES(pes, 1)
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Errorf("idle node allocated %v", alloc)
	}
}

func TestPlanFairShareBaseTargets(t *testing.T) {
	pes := []PETick{
		{Target: 0.6, Work: 1},
		{Target: 0.4, Work: 1},
	}
	alloc := PlanFairShare(pes, 1)
	if !almostEq(alloc[0], 0.6, 1e-9) || !almostEq(alloc[1], 0.4, 1e-9) {
		t.Errorf("fair share = %v, want targets", alloc)
	}
}

func TestPlanFairShareRedistributesBlockedCPU(t *testing.T) {
	// The blocked PE's 0.5 target flows to the two runnable PEs
	// proportionally to their targets (Lock-Step semantics §VI).
	pes := []PETick{
		{Target: 0.5, Work: 1, Blocked: true},
		{Target: 0.3, Work: 1},
		{Target: 0.2, Work: 1},
	}
	alloc := PlanFairShare(pes, 1)
	if alloc[0] != 0 {
		t.Errorf("blocked PE allocated %g", alloc[0])
	}
	if !almostEq(alloc[1], 0.6, 1e-9) || !almostEq(alloc[2], 0.4, 1e-9) {
		t.Errorf("redistribution = %v, want 0.6/0.4", alloc)
	}
}

func TestPlanFairShareCapsAtWork(t *testing.T) {
	// PE 0 only has a little work; the excess goes to PE 1.
	pes := []PETick{
		{Target: 0.5, Work: 0.1},
		{Target: 0.5, Work: 2},
	}
	alloc := PlanFairShare(pes, 1)
	if !almostEq(alloc[0], 0.1, 1e-9) {
		t.Errorf("work-capped alloc = %g", alloc[0])
	}
	if !almostEq(alloc[1], 0.9, 1e-9) {
		t.Errorf("redistributed alloc = %g", alloc[1])
	}
}

func TestPlanFairShareIdleNode(t *testing.T) {
	pes := []PETick{{Target: 0.5, Work: 0}, {Target: 0.5, Work: 0}}
	alloc := PlanFairShare(pes, 1)
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Errorf("idle node allocated %v", alloc)
	}
}

func TestPlanStrictNoRedistribution(t *testing.T) {
	pes := []PETick{
		{Target: 0.5, Work: 0.1},
		{Target: 0.5, Work: 2},
	}
	alloc := PlanStrict(pes, 1)
	if !almostEq(alloc[0], 0.1, 1e-9) || !almostEq(alloc[1], 0.5, 1e-9) {
		t.Errorf("strict = %v, want [0.1, 0.5] (no redistribution)", alloc)
	}
}

// Property: all planners return non-negative allocations summing to at
// most capacity, never exceeding per-PE work, and ACES never exceeds
// tokens or cap.
func TestPlannerInvariantsProperty(t *testing.T) {
	f := func(raw []struct {
		Target, Tokens, Occ, Work, Cap uint8
		Blocked                        bool
	}) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		pes := make([]PETick, len(raw))
		for i, r := range raw {
			pes[i] = PETick{
				Target:    float64(r.Target) / 255,
				Tokens:    float64(r.Tokens) / 128,
				Occupancy: float64(r.Occ),
				Work:      float64(r.Work) / 64,
				Cap:       float64(r.Cap) / 64,
				Blocked:   r.Blocked,
			}
		}
		for _, plan := range [][]float64{PlanACES(pes, 1), PlanFairShare(pes, 1), PlanStrict(pes, 1)} {
			var sum float64
			for i, a := range plan {
				if a < -1e-12 || a > pes[i].Work+1e-9 {
					return false
				}
				if pes[i].Blocked && a != 0 {
					return false
				}
				sum += a
			}
			if sum > 1+1e-9 {
				return false
			}
		}
		// ACES-specific: tokens and caps respected.
		for i, a := range PlanACES(pes, 1) {
			if a > pes[i].Tokens+1e-9 || a > pes[i].Cap+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestRateCPUConversionsRoundTrip(t *testing.T) {
	const (
		cost = 0.002
		mult = 2.0
		dt   = 0.01
	)
	c := RateToCPU(5, cost, mult, dt)
	// 5 SDOs out per tick needs 2.5 inputs per tick × 2 ms = 5 ms CPU per
	// 10 ms tick → c = 0.5.
	if !almostEq(c, 0.5, 1e-12) {
		t.Errorf("RateToCPU = %g, want 0.5", c)
	}
	back := CPUToRate(c, cost, mult, dt)
	if !almostEq(back, 5, 1e-12) {
		t.Errorf("round trip = %g, want 5", back)
	}
	if RateToCPU(math.Inf(1), cost, mult, dt) != math.Inf(1) {
		t.Errorf("unbounded rate should map to unbounded CPU")
	}
	if RateToCPU(-3, cost, mult, dt) != 0 || CPUToRate(-1, cost, mult, dt) != 0 {
		t.Errorf("negative inputs should clamp to 0")
	}
	// Zero multiplicity defaults to 1.
	if !almostEq(RateToCPU(5, cost, 0, dt), 1.0, 1e-12) {
		t.Errorf("mult=0 default broken")
	}
}

func TestFeedbackOutputBound(t *testing.T) {
	f := NewFeedback()
	if !math.IsInf(f.OutputBound(nil), 1) {
		t.Errorf("egress PE should be unconstrained")
	}
	// Silent downstream → unconstrained (cold start).
	if !math.IsInf(f.OutputBound([]int32{1, 2}), 1) {
		t.Errorf("cold start should be unconstrained")
	}
	f.Publish(1, 10)
	f.Publish(2, 30)
	f.Publish(3, 20)
	// Eq. 8: the max (fastest downstream) gates the sender.
	if got := f.OutputBound([]int32{1, 2, 3}); got != 30 {
		t.Errorf("OutputBound = %g, want 30 (max-flow)", got)
	}
	// Min-flow ablation takes the slowest.
	if got := f.MinBound([]int32{1, 2, 3}); got != 10 {
		t.Errorf("MinBound = %g, want 10 (min-flow)", got)
	}
	// Negative advertisements clamp to zero.
	f.Publish(1, -5)
	if r, ok := f.RMax(1); !ok || r != 0 {
		t.Errorf("RMax(1) = %g,%v", r, ok)
	}
	if f.String() == "" {
		t.Errorf("String broken")
	}
}

func TestFeedbackMinBoundColdStart(t *testing.T) {
	f := NewFeedback()
	f.Publish(1, 10)
	// PE 2 silent: MinBound considers only known advertisements.
	if got := f.MinBound([]int32{1, 2}); got != 10 {
		t.Errorf("MinBound with silent peer = %g, want 10", got)
	}
	if !math.IsInf(f.MinBound([]int32{7}), 1) {
		t.Errorf("all-silent MinBound should be unconstrained")
	}
}

func TestPlanLockStepBaseTargets(t *testing.T) {
	pes := []PETick{
		{Target: 0.6, Work: 1},
		{Target: 0.4, Work: 1},
	}
	alloc := PlanLockStep(pes, 1)
	if !almostEq(alloc[0], 0.6, 1e-9) || !almostEq(alloc[1], 0.4, 1e-9) {
		t.Errorf("lockstep plan = %v, want targets", alloc)
	}
}

func TestPlanLockStepRedistributesOnlyBlockedSlices(t *testing.T) {
	// PE 0 blocked (0.5 target) → its slice flows to the others; PE 3 is
	// idle (no work) and its 0.1 target is simply lost (strict semantics).
	pes := []PETick{
		{Target: 0.5, Work: 1, Blocked: true},
		{Target: 0.2, Work: 1},
		{Target: 0.2, Work: 1},
		{Target: 0.1, Work: 0},
	}
	alloc := PlanLockStep(pes, 1)
	if alloc[0] != 0 {
		t.Errorf("blocked PE allocated %g", alloc[0])
	}
	if alloc[3] != 0 {
		t.Errorf("idle PE allocated %g", alloc[3])
	}
	// Each runnable PE: target 0.2 + half of the blocked 0.5 = 0.45.
	if !almostEq(alloc[1], 0.45, 1e-9) || !almostEq(alloc[2], 0.45, 1e-9) {
		t.Errorf("redistribution = %v, want [0, 0.45, 0.45, 0]", alloc)
	}
	// Idle slack is NOT redistributed: total 0.9, not 1.0.
	if total := alloc[1] + alloc[2]; !almostEq(total, 0.9, 1e-9) {
		t.Errorf("total = %g, want 0.9 (idle slack lost)", total)
	}
}

func TestPlanLockStepWorkCapsRedistribution(t *testing.T) {
	pes := []PETick{
		{Target: 0.5, Work: 1, Blocked: true},
		{Target: 0.3, Work: 0.35}, // can absorb only 0.05 extra
		{Target: 0.2, Work: 1},
	}
	alloc := PlanLockStep(pes, 1)
	if !almostEq(alloc[1], 0.35, 1e-9) {
		t.Errorf("work-capped alloc = %g, want 0.35", alloc[1])
	}
	// The rest of the blocked slice flows to PE 2: 0.2 + (0.5 − 0.05) capped
	// by work (1): 0.65.
	if !almostEq(alloc[2], 0.65, 1e-9) {
		t.Errorf("alloc[2] = %g, want 0.65", alloc[2])
	}
}

func TestPlanLockStepOversubscribedScales(t *testing.T) {
	pes := []PETick{
		{Target: 0.8, Work: 1},
		{Target: 0.8, Work: 1},
	}
	alloc := PlanLockStep(pes, 1)
	if !almostEq(alloc[0]+alloc[1], 1, 1e-9) {
		t.Errorf("oversubscribed total = %g", alloc[0]+alloc[1])
	}
}

// Property: PlanLockStep obeys the same safety invariants as the others.
func TestPlanLockStepInvariantsProperty(t *testing.T) {
	f := func(raw []struct {
		Target, Work uint8
		Blocked      bool
	}) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		pes := make([]PETick, len(raw))
		for i, r := range raw {
			pes[i] = PETick{
				Target:  float64(r.Target) / 255,
				Work:    float64(r.Work) / 64,
				Blocked: r.Blocked,
			}
		}
		var sum float64
		for i, a := range PlanLockStep(pes, 1) {
			if a < -1e-12 || a > pes[i].Work+1e-9 {
				return false
			}
			if pes[i].Blocked && a != 0 {
				return false
			}
			sum += a
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTokenBucketRefillFor(t *testing.T) {
	b := NewTokenBucket(0.1, 10)
	b.Spend(0.1) // empty
	b.RefillFor(2.5)
	if !almostEq(b.Level(), 0.25, 1e-12) {
		t.Errorf("RefillFor(2.5) level = %g, want 0.25", b.Level())
	}
	b.RefillFor(-3) // negative clamps to no-op
	if !almostEq(b.Level(), 0.25, 1e-12) {
		t.Errorf("negative RefillFor changed level: %g", b.Level())
	}
	b.RefillFor(1000)
	if !almostEq(b.Level(), 1.0, 1e-12) {
		t.Errorf("cap not enforced: %g", b.Level())
	}
}

func TestFeedbackMarkDownZeroesBound(t *testing.T) {
	fb := NewFeedback()
	fb.Publish(1, 5)
	fb.Publish(2, 9)
	down := []int32{1, 2}

	if got := fb.OutputBound(down); got != 9 {
		t.Fatalf("healthy bound = %v, want 9", got)
	}
	// The fastest downstream dies: the max must fall back to the live one.
	fb.MarkDown(2, true)
	if got := fb.OutputBound(down); got != 5 {
		t.Errorf("bound with PE2 down = %v, want 5 (route to live replica)", got)
	}
	if !fb.Down(2) || fb.Down(1) {
		t.Errorf("Down marks wrong: 1=%v 2=%v", fb.Down(1), fb.Down(2))
	}
	// Min-flow: any dead downstream gates the sender at zero.
	if got := fb.MinBound(down); got != 0 {
		t.Errorf("min bound with PE2 down = %v, want 0", got)
	}
	// All downstreams dead → bound 0, and AllDown reports the freeze case.
	fb.MarkDown(1, true)
	if got := fb.OutputBound(down); got != 0 {
		t.Errorf("bound with all down = %v, want 0", got)
	}
	if !fb.AllDown(down) {
		t.Error("AllDown false with every downstream marked")
	}
	// Recovery clears the mark and restores the advertisement.
	fb.MarkDown(2, false)
	if got := fb.OutputBound(down); got != 9 {
		t.Errorf("bound after recovery = %v, want 9", got)
	}
	if fb.AllDown(down) {
		t.Error("AllDown true after recovery")
	}
}

func TestFeedbackDownSilencedPeerNotUnconstrained(t *testing.T) {
	fb := NewFeedback()
	fb.Publish(1, 3)
	// PE 2 never advertised. Silent → unconstrained (cold start)…
	if got := fb.OutputBound([]int32{1, 2}); !math.IsInf(got, 1) {
		t.Fatalf("silent downstream bound = %v, want +Inf", got)
	}
	// …but a downed silent PE is not a cold start: its vacancy is not
	// capacity, so the bound must come from the live peers only.
	fb.MarkDown(2, true)
	if got := fb.OutputBound([]int32{1, 2}); got != 3 {
		t.Errorf("downed-silent downstream bound = %v, want 3", got)
	}
	if fb.AllDown(nil) {
		t.Error("AllDown true for empty downstream set")
	}
}

func TestTokenBucketSetRateZeroRoundTripKeepsHorizon(t *testing.T) {
	// Park→unpark round trip: a parked PE has its rate zeroed and its
	// bucket drained; unparking (or a retarget through zero) must restore
	// the full burst horizon, not collapse it to one tick.
	b := NewTokenBucket(0.2, 5)
	b.SetRate(0)
	b.Spend(b.Level())
	if b.Level() != 0 || b.Rate() != 0 {
		t.Fatalf("parked bucket level=%g rate=%g, want 0/0", b.Level(), b.Rate())
	}
	for i := 0; i < 100; i++ {
		b.Refill() // earns nothing while parked
	}
	if b.Level() != 0 {
		t.Fatalf("parked bucket earned %g", b.Level())
	}
	b.SetRate(0.2)
	for i := 0; i < 100; i++ {
		b.Refill()
	}
	if !almostEq(b.Level(), 1.0, 1e-12) {
		t.Errorf("after unpark cap = %g, want 0.2 × 5 = 1.0 (horizon lost through SetRate(0))", b.Level())
	}
}

func TestFeedbackForgetRemovesGhostFromOutputBound(t *testing.T) {
	f := NewFeedback()
	f.Publish(1, 5)
	f.Publish(2, 40)
	down := []int32{1, 2}
	if got := f.OutputBound(down); got != 40 {
		t.Fatalf("OutputBound = %g, want ghost-to-be 40", got)
	}
	// PE 2 is decommissioned by a retarget; it will never advertise again.
	// Its ghost must not feed the Eq. 8 max, and its silence must not make
	// the bound unconstrained either.
	f.Forget(2)
	if got := f.OutputBound(down); got != 5 {
		t.Errorf("OutputBound after Forget = %g, want 5", got)
	}
	if got := f.MinBound(down); got != 5 {
		t.Errorf("MinBound after Forget = %g, want 5", got)
	}
	if _, ok := f.RMax(2); ok {
		t.Errorf("RMax(2) still present after Forget")
	}
	// All live downstreams forgotten: no capacity anywhere, bound is 0.
	f.Forget(1)
	if got := f.OutputBound(down); got != 0 {
		t.Errorf("OutputBound with all forgotten = %g, want 0", got)
	}
	// A forgotten PE that advertises again rejoins the board.
	f.Publish(2, 7)
	if got := f.OutputBound(down); got != 7 {
		t.Errorf("OutputBound after re-publish = %g, want 7", got)
	}
}

func TestFeedbackForgetClearsDownMark(t *testing.T) {
	f := NewFeedback()
	f.Publish(3, 10)
	f.MarkDown(3, true)
	f.Forget(3)
	if f.Down(3) {
		t.Errorf("Down(3) survived Forget")
	}
	if f.AllDown([]int32{3}) {
		t.Errorf("AllDown treats forgotten PE as down")
	}
}
