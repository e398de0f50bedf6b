package controller

import (
	"math"
	"math/rand"
	"testing"
)

// planners lists every planning method with the entitlement Lend reads
// after it.
var planners = []struct {
	name    string
	plan    func(*Planner, []PETick, float64) []float64
	entitle func(PETick) float64
}{
	{"aces", (*Planner).PlanACES, func(p PETick) float64 { return p.Tokens }},
	{"strict", (*Planner).PlanStrict, func(p PETick) float64 { return p.Target }},
	{"lockstep", (*Planner).PlanLockStep, func(p PETick) float64 { return p.Target }},
	{"fairshare", (*Planner).PlanFairShare, func(p PETick) float64 { return p.Target }},
}

// randomTicks draws a node of 1–12 PEs: idle, trickling and backlogged
// ones, banked and empty buckets, capped and uncapped, a tenth blocked.
func randomTicks(rng *rand.Rand) []PETick {
	pes := make([]PETick, 1+rng.Intn(12))
	for i := range pes {
		p := PETick{
			Target:    0.5 * rng.Float64(),
			Tokens:    2 * rng.Float64(),
			Occupancy: float64(rng.Intn(50)),
			Cap:       math.Inf(1),
			Blocked:   rng.Intn(10) == 0,
		}
		switch rng.Intn(3) {
		case 1:
			p.Work = 0.05 * rng.Float64()
		case 2:
			p.Work = 3 * rng.Float64()
		}
		if rng.Intn(2) == 0 {
			p.Cap = rng.Float64()
		}
		if rng.Intn(8) == 0 {
			p.Tokens = 0
		}
		pes[i] = p
	}
	return pes
}

func planAndLend(pl *Planner, plan func(*Planner, []PETick, float64) []float64, pes []PETick, capacity float64) (alloc, lend []float64) {
	alloc = append([]float64(nil), plan(pl, pes, capacity)...)
	lend = append([]float64(nil), pl.Lend(pes, capacity)...)
	return alloc, lend
}

func TestLendInvariantsProperty(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(14))
	var pl Planner
	for _, pn := range planners {
		lentSets := 0
		for set := 0; set < 1000; set++ {
			pes := randomTicks(rng)
			capacity := 0.05 + 0.95*rng.Float64()
			alloc, lend := planAndLend(&pl, pn.plan, pes, capacity)

			leftover := capacity
			var lentSum float64
			for i := range pes {
				leftover -= alloc[i]
				lentSum += lend[i]
			}
			if lentSum > 0 {
				lentSets++
			}
			if lentSum > math.Max(leftover, 0)+tol {
				t.Fatalf("%s set %d: lent %g of a leftover of %g (capacity %g)", pn.name, set, lentSum, leftover, capacity)
			}
			for i, p := range pes {
				ceiling := math.Min(pn.entitle(p), p.Cap)
				switch {
				case lend[i] < 0:
					t.Fatalf("%s set %d PE %d: negative loan %g", pn.name, set, i, lend[i])
				case p.Blocked && lend[i] != 0:
					t.Fatalf("%s set %d PE %d: blocked PE lent %g", pn.name, set, i, lend[i])
				case lend[i] > 0 && alloc[i]+lend[i] > ceiling+tol:
					t.Fatalf("%s set %d PE %d: alloc %g + lend %g above its ceiling %g", pn.name, set, i, alloc[i], lend[i], ceiling)
				case leftover < tol && lend[i] != 0:
					t.Fatalf("%s set %d PE %d: lent %g with no leftover (%g)", pn.name, set, i, lend[i], leftover)
				}
			}

			// More node, never a smaller loan.
			_, more := planAndLend(&pl, pn.plan, pes, capacity*(1+rng.Float64()))
			for i := range pes {
				if more[i] < lend[i]-tol {
					t.Fatalf("%s set %d PE %d: loan fell from %g to %g when capacity rose", pn.name, set, i, lend[i], more[i])
				}
			}
		}
		if lentSets < 100 {
			t.Errorf("%s: only %d of 1000 sets lent anything, the property is barely exercised", pn.name, lentSets)
		}
	}
}

// The example the forecast is kept for: a small leftover split by room
// alone goes mostly to the neighbour with the large banked bucket, so the
// lightly loaded PE has to claim its share in the plan, through Work.
func TestLendSplitsByRoomWhenShort(t *testing.T) {
	var pl Planner
	pes := []PETick{
		{Tokens: 0.4, Work: 0, Cap: math.Inf(1)},
		{Tokens: 5, Work: 0.01, Cap: math.Inf(1)},
		{Tokens: 0.6, Work: 0.6, Occupancy: 10, Cap: math.Inf(1)},
	}
	alloc, lend := planAndLend(&pl, (*Planner).PlanACES, pes, 1)
	// leftover 0.39 over rooms 0.4 and 4.99.
	if want := 0.4 * 0.39 / 5.39; !almostEq(lend[0], want, 1e-12) {
		t.Errorf("forecast 0: lent %g, want %g of a leftover split by room", lend[0], want)
	}
	if lend[2] != 0 {
		t.Errorf("token-bound PE lent %g, want 0", lend[2])
	}
	pes[0].Work = 0.35
	alloc, lend = planAndLend(&pl, (*Planner).PlanACES, pes, 1)
	if alloc[0] != 0.35 {
		t.Errorf("forecast 0.35: allocated %g in the plan, want 0.35", alloc[0])
	}
	if got := alloc[0] + lend[0]; got < 0.35 || got > 0.4 {
		t.Errorf("forecast 0.35: holds %g, want between its forecast and its tokens", got)
	}
}

func TestLendZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pes := randomTicks(rng)
	var pl Planner
	pl.PlanACES(pes, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		pl.PlanACES(pes, 1)
		pl.Lend(pes, 1)
	}); allocs != 0 {
		t.Errorf("plan + lend allocates %.1f times per tick, want 0", allocs)
	}
}
