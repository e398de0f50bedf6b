package optimize

import (
	"math"
	"sort"
	"testing"

	"aces/internal/graph"
	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/workload"
)

// richDAG builds a random layered DAG exercising every branch of the
// adjoint: join PEs (min over feeds), MeanMult ≠ 1, nonzero Overhead
// (dead zones at small allocations), copy-fanout (shared downstream
// consumers), weighted intermediates, and — when elastic — multi-slot
// replica placements. graph.Generate produces none of joins, overheads or
// multiplicities, so the gradient check needs its own builder.
func richDAG(t testing.TB, seed int64, p, nodes int, elastic bool) *graph.Topology {
	t.Helper()
	rng := sim.NewRand(seed)
	topo := graph.New(nodes, 50)
	nIngress := 2 + rng.Intn(3)
	if nIngress > p/2 {
		nIngress = p / 2
	}
	for j := 0; j < p; j++ {
		sp := workload.ServiceParams{
			T0: 0.001 + 0.009*rng.Float64(), Rho: 0.5, LambdaS: 10, DwellUnit: 0.01,
			MeanMult: 0.5 + 1.5*rng.Float64(), // exercise multiplicity scaling
		}
		sp.T1 = sp.T0
		pe := graph.PE{Service: sp, Node: sdo.NodeID(rng.Intn(nodes))}
		if j >= nIngress {
			// Fan in from 1–3 strictly-earlier PEs (never an ingress-only
			// constraint issue: source targets stay upstream-free).
			fanin := 1 + rng.Intn(3)
			seen := map[sdo.PEID]bool{}
			var ups []sdo.PEID
			for f := 0; f < fanin; f++ {
				if u := sdo.PEID(rng.Intn(j)); !seen[u] {
					seen[u] = true
					ups = append(ups, u)
				}
			}
			// Connect in ascending order: Up() order is the join tie-break,
			// so map order would make a seeded topology's iterates differ
			// in the last bit from run to run.
			sort.Slice(ups, func(a, b int) bool { return ups[a] < ups[b] })
			if len(ups) >= 2 && rng.Float64() < 0.35 {
				pe.Join = true
			}
			if rng.Float64() < 0.4 {
				pe.Overhead = 2 + 10*rng.Float64() // dead zone at small c
			}
			if rng.Float64() < 0.3 {
				pe.Weight = 0.5 + rng.Float64()
			}
			if elastic && !pe.Join && rng.Float64() < 0.4 {
				pe.MaxReplicas = 2 + rng.Intn(2)
			}
			id := topo.AddPE(pe)
			for _, u := range ups {
				if err := topo.Connect(u, id); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			id := topo.AddPE(pe)
			if err := topo.AddSource(graph.Source{
				Stream: sdo.StreamID(j + 1), Target: id,
				Rate:  50 + 150*rng.Float64(),
				Burst: graph.BurstSpec{Kind: graph.BurstPoisson},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every sink carries weight so gradients reach the whole DAG.
	for j := range topo.PEs {
		if len(topo.Down(sdo.PEID(j))) == 0 && topo.PEs[j].Weight == 0 {
			topo.PEs[j].Weight = 1
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("richDAG(seed=%d): %v", seed, err)
	}
	return topo
}

// workspace returns the adjoint over the topology's slot layout (one slot
// per PE, or per replica slot when elastic) plus each node's slot group.
func workspace(t testing.TB, topo *graph.Topology, elastic bool) (*adjoint, [][]int) {
	t.Helper()
	order, err := topo.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	first := slotLayout(topo, elastic)
	return newAdjoint(topo, order, first), nodeGroups(topo, first)
}

// TestGradientCheck pins the adjoint gradient against central differences
// of the SAME forward model over a seeded random-DAG ladder: joins,
// MeanMult ≠ 1, overhead dead zones, copy fanout, and (in elastic rows)
// multi-slot replica placements. The objective is piecewise smooth, so
// coordinates sitting on a kink — detected when the one-sided differences
// disagree — are skipped: there the analytic engine deliberately takes the
// forward-difference subgradient while a central difference averages the
// two branches. Away from kinks the two must agree to 1e-5 relative.
func TestGradientCheck(t *testing.T) {
	cases := []struct {
		name    string
		seed    int64
		p       int
		nodes   int
		elastic bool
		util    Utility
	}{
		{"small-linear", 1, 12, 3, false, LinearUtility{}},
		{"small-log", 2, 12, 3, false, LogUtility{Scale: 20}},
		{"medium-linear", 3, 40, 6, false, LinearUtility{}},
		{"medium-exp", 4, 40, 6, false, ExpUtility{Scale: 50}},
		{"large-log", 5, 80, 10, false, LogUtility{Scale: 10}},
		{"elastic-small-linear", 6, 12, 3, true, LinearUtility{}},
		{"elastic-medium-log", 7, 40, 6, true, LogUtility{Scale: 20}},
		{"elastic-large-linear", 8, 80, 10, true, LinearUtility{}},
	}
	const (
		h       = 1e-6
		relTol  = 1e-5
		kinkTol = 1e-3
	)
	totalChecked, totalSkipped := 0, 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := richDAG(t, tc.seed, tc.p, tc.nodes, tc.elastic)
			ws, groups := workspace(t, topo, tc.elastic)
			n := 0
			for _, ids := range groups {
				n += len(ids)
			}
			pj := &projector{groups: groups}
			rng := sim.NewRand(tc.seed * 7919)
			grad := make([]float64, n)
			x := make([]float64, n)
			for point := 0; point < 3; point++ {
				for i := range x {
					x[i] = rng.Float64()
				}
				pj.project(x, 1)
				ws.evalGrad(x, tc.util, grad)
				checked, skipped := 0, 0
				for i := 0; i < n; i++ {
					old := x[i]
					x[i] = old + h
					fp := ws.eval(x, tc.util)
					x[i] = old - h
					fm := ws.eval(x, tc.util)
					x[i] = old
					f0 := ws.eval(x, tc.util)
					gFwd := (fp - f0) / h
					gBwd := (f0 - fm) / h
					scale := math.Abs(gFwd) + math.Abs(gBwd) + 1
					if math.Abs(gFwd-gBwd) > kinkTol*scale {
						// Kink: min() branch switches within ±h. The analytic
						// subgradient picks the forward branch by design;
						// central differences average the two — not comparable.
						skipped++
						continue
					}
					gc := (fp - fm) / (2 * h)
					if diff := math.Abs(grad[i] - gc); diff > relTol*(math.Abs(gc)+1) {
						t.Errorf("point %d coord %d: analytic %.8g vs central %.8g (diff %.3g)",
							point, i, grad[i], gc, diff)
					}
					checked++
				}
				if checked == 0 {
					t.Errorf("point %d: every coordinate sat on a kink — check is vacuous", point)
				}
				totalChecked += checked
				totalSkipped += skipped
			}
		})
	}
	if totalChecked < 3*totalSkipped {
		t.Errorf("too many kink skips: %d checked vs %d skipped", totalChecked, totalSkipped)
	}
}

// referenceSolveFD is the finite-difference reference solver the adjoint
// engine replaced: the same cold start, line search, step adaptation,
// phase-2 polish, projection and MinShare as Solve, but every gradient is
// a difference quotient — p propagations per phase-1 iteration (forward
// differences against a re-evaluated base) and 2p per phase-2 step
// (central differences). It returns the final CPU vector, its
// re-propagated objective and the propagations spent.
func referenceSolveFD(t *graph.Topology, cfg Config) (cpu []float64, obj float64, evals int) {
	cfg.fillDefaults()
	p := t.NumPEs()
	order, _ := t.TopoOrder()
	first := slotLayout(t, false)
	ws := newAdjoint(t, order, first)
	pj := &projector{groups: nodeGroups(t, first)}
	c := make([]float64, p)
	demand, _ := t.UnitDemand()
	nodeSum := make([]float64, t.NumNodes)
	for j := 0; j < p; j++ {
		c[j] = demand[j]*t.PEs[j].Service.EffectiveCost() + 1e-6
		nodeSum[t.PEs[j].Node] += c[j]
	}
	for j := 0; j < p; j++ {
		c[j] *= 0.95 * cfg.Headroom / nodeSum[t.PEs[j].Node]
	}
	eval := func(c []float64) float64 { return ws.eval(c, cfg.Utility) }
	best := make([]float64, p)
	copy(best, c)
	bestObj := eval(c)
	objWindow := bestObj
	grad := make([]float64, p)
	trial := make([]float64, p)
	step := 0.05
	iters := 0
	for it := 1; it <= cfg.MaxIters; it++ {
		iters = it
		base := eval(c)
		const h = 1e-7
		for j := 0; j < p; j++ {
			old := c[j]
			c[j] = old + h
			grad[j] = (eval(c) - base) / h
			c[j] = old
		}
		gnorm := norm(grad)
		if gnorm < 1e-14 {
			break
		}
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			for j := 0; j < p; j++ {
				trial[j] = c[j] + step*grad[j]/gnorm
			}
			pj.project(trial, cfg.Headroom)
			if obj := eval(trial); obj > base {
				copy(c, trial)
				if obj > bestObj {
					bestObj = obj
					copy(best, c)
				}
				step = min(step*1.25, 0.25)
				improved = true
				break
			}
			step *= 0.5
			if step < 1e-10 {
				break
			}
		}
		if !improved {
			break
		}
		if it%25 == 0 {
			if bestObj-objWindow <= cfg.Tol*(math.Abs(bestObj)+1e-12) {
				break
			}
			objWindow = bestObj
		}
	}
	copy(c, best)
	subIters := min(cfg.MaxIters-iters, 3000)
	for it := 1; it <= subIters; it++ {
		const h = 1e-7
		for j := 0; j < p; j++ {
			old := c[j]
			c[j] = old + h
			up := eval(c)
			c[j] = old - h
			down := eval(c)
			c[j] = old
			grad[j] = (up - down) / (2 * h)
		}
		gnorm := norm(grad)
		if gnorm < 1e-14 {
			break
		}
		alpha := 0.15 / math.Sqrt(float64(it))
		for j := 0; j < p; j++ {
			c[j] += alpha * grad[j] / gnorm
		}
		pj.project(c, cfg.Headroom)
		if obj := eval(c); obj > bestObj {
			bestObj = obj
			copy(best, c)
		}
	}
	if cfg.MinShare > 0 {
		applyMinShare(t, best, cfg.MinShare, cfg.Headroom)
	}
	return best, eval(best), ws.evals
}

// TestAnalyticMatchesFiniteDiffQuality runs Solve and the finite-
// difference reference to convergence on a generated p=200 topology: the
// adjoint solve must land within 1% of the reference objective while
// spending at least 10× fewer propagations (a deterministic stand-in for
// the wall-clock gain).
func TestAnalyticMatchesFiniteDiffQuality(t *testing.T) {
	topo, err := graph.Generate(graph.DefaultGenConfig(200, 20, 99))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Utility: LinearUtility{}, MinShare: 0.02, MaxIters: 2000}
	an, err := Solve(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, fdObj, fdEvals := referenceSolveFD(topo, cfg)
	if an.Objective < 0.99*fdObj {
		t.Errorf("analytic objective %.4f below 99%% of finite-difference %.4f", an.Objective, fdObj)
	}
	if 10*an.Evals > fdEvals {
		t.Errorf("analytic used %d evals, finite-difference %d — want ≥ 10× fewer", an.Evals, fdEvals)
	}
	t.Logf("objective: analytic %.2f (%d evals) vs fd %.2f (%d evals)",
		an.Objective, an.Evals, fdObj, fdEvals)
}

// TestSolveObjectiveMatchesRepropagation is the MinShare staleness
// regression: a weight-0 sink PE that linear utility starves to ~0 CPU
// gets floored by MinShare, shrinking the productive PEs' shares — so the
// pre-MinShare bestObj overstates the returned vector. The returned
// Objective must match an independent re-propagation of the returned CPU
// exactly, and must differ from the unfloored solve's objective (proving
// the two values demonstrably diverge on this config).
func TestSolveObjectiveMatchesRepropagation(t *testing.T) {
	// Asymmetric costs keep the cold start off the exactly-balanced ridge
	// where every per-coordinate difference quotient vanishes.
	topo := graph.New(1, 50)
	a := topo.AddPE(graph.PE{Service: uniformService(0.002)})
	b := topo.AddPE(graph.PE{Service: uniformService(0.004), Weight: 1})
	sink := topo.AddPE(graph.PE{Service: uniformService(0.004)})
	if err := topo.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(a, sink); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: a, Rate: 1000, Burst: graph.BurstSpec{Kind: graph.BurstPoisson}}); err != nil {
		t.Fatal(err)
	}
	base, err := Solve(topo, Config{Utility: LinearUtility{}})
	if err != nil {
		t.Fatal(err)
	}
	floored, err := Solve(topo, Config{Utility: LinearUtility{}, MinShare: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if floored.Objective >= base.Objective-1e-6 {
		t.Fatalf("MinShare did not reduce the objective (%.6f vs %.6f) — regression scenario lost its bite",
			floored.Objective, base.Objective)
	}
	_, rout, err := Propagate(topo, floored.CPU)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for j := range topo.PEs {
		if w := topo.PEs[j].Weight; w > 0 {
			want += w * (LinearUtility{}).Value(rout[j])
		}
	}
	if diff := math.Abs(floored.Objective - want); diff > 1e-9*(math.Abs(want)+1) {
		t.Errorf("Objective %.12f but re-propagating the returned CPU gives %.12f", floored.Objective, want)
	}
}

// TestSolveElasticObjectiveMatchesRepropagation is the parsimony
// staleness regression: SolveElastic's returned Objective must match an
// independent PropagateElastic of the returned Replica matrix — i.e. it
// reflects the post-pruning, post-dust-snap slot vector, not the peak
// bestObj the ascent saw before parsimony removed tol-worth of replicas.
func TestSolveElasticObjectiveMatchesRepropagation(t *testing.T) {
	for _, seed := range []int64{6, 7, 8} {
		topo := richDAG(t, seed, 30, 5, true)
		ea, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 400, Tol: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		_, rout, err := PropagateElastic(topo, ea.Replica)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for j := range topo.PEs {
			if w := topo.PEs[j].Weight; w > 0 {
				want += w * (LinearUtility{}).Value(rout[j])
			}
		}
		if diff := math.Abs(ea.Objective - want); diff > 1e-9*(math.Abs(want)+1) {
			t.Errorf("seed %d: Objective %.12f but re-propagating the returned Replica gives %.12f",
				seed, ea.Objective, want)
		}
	}
}

// TestColdStartFlag covers the silent-fallback satellite: a missing or
// wrong-shaped warm start must be SURFACED via the ColdStart flag (the
// control_epoch benchmark fails a warm solve that sets it), and a
// correctly shaped one must clear it.
func TestColdStartFlag(t *testing.T) {
	topo := chainTopo(t, []float64{0.004, 0.004}, 100)
	cold, err := Solve(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.ColdStart {
		t.Errorf("no WarmStart: ColdStart = false, want true")
	}
	warm, err := Solve(topo, Config{WarmStart: cold.CPU})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ColdStart {
		t.Errorf("matching WarmStart: ColdStart = true, want false")
	}
	// Shape mismatch (stale incumbent after a topology change).
	wrong, err := Solve(topo, Config{WarmStart: cold.CPU[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if !wrong.ColdStart {
		t.Errorf("wrong-shaped WarmStart: ColdStart = false, want true")
	}
}

func TestColdStartFlagElastic(t *testing.T) {
	topo := hotTopo(t, 400, 0.004)
	cold, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.ColdStart {
		t.Errorf("no WarmStartReplica: ColdStart = false, want true")
	}
	warm, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300, WarmStartReplica: cold.Replica})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ColdStart {
		t.Errorf("matching WarmStartReplica: ColdStart = true, want false")
	}
	// Row-count mismatch and slot-count mismatch both cold-start.
	badRows := cold.Replica[:1]
	if ea, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300, WarmStartReplica: badRows}); err != nil {
		t.Fatal(err)
	} else if !ea.ColdStart {
		t.Errorf("wrong row count: ColdStart = false, want true")
	}
	badSlots := make([][]float64, len(cold.Replica))
	for j := range badSlots {
		badSlots[j] = append([]float64{}, cold.Replica[j]...)
	}
	badSlots[0] = append(badSlots[0], 0.1)
	if ea, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300, WarmStartReplica: badSlots}); err != nil {
		t.Fatal(err)
	} else if !ea.ColdStart {
		t.Errorf("wrong slot count: ColdStart = false, want true")
	}
}

// TestProjectorZeroAlloc gates the projection scratch reuse: after one
// warm-up call the per-node simplex projection must not allocate.
func TestProjectorZeroAlloc(t *testing.T) {
	topo := richDAG(t, 11, 40, 6, false)
	pj := &projector{groups: nodeGroups(topo, slotLayout(topo, false))}
	rng := sim.NewRand(3)
	x := make([]float64, topo.NumPEs())
	for i := range x {
		x[i] = 2 * rng.Float64() // infeasible on purpose: force the threshold path
	}
	pj.project(x, 1) // warm up the scratch
	allocs := testing.AllocsPerRun(100, func() {
		for i := range x {
			x[i] = 2 * x[i]
		}
		pj.project(x, 1)
	})
	if allocs != 0 {
		t.Errorf("projector.project allocates %.1f times per call, want 0", allocs)
	}
}

// TestAdjointEvalZeroAlloc gates the workspace reuse: one forward+backward
// sweep (the per-iteration cost of the analytic engine) must not allocate.
func TestAdjointEvalZeroAlloc(t *testing.T) {
	topo := richDAG(t, 12, 40, 6, false)
	ws, _ := workspace(t, topo, false)
	x := make([]float64, topo.NumPEs())
	grad := make([]float64, topo.NumPEs())
	rng := sim.NewRand(4)
	for i := range x {
		x[i] = rng.Float64() / 8
	}
	// Pre-boxed: converting the concrete utility to the interface inside
	// the closure would itself allocate and mask the workspace behavior.
	var util Utility = LogUtility{Scale: 10}
	allocs := testing.AllocsPerRun(100, func() {
		ws.evalGrad(x, util, grad)
	})
	if allocs != 0 {
		t.Errorf("evalGrad allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSolveAllocs is the solver allocation gate: with the adjoint
// workspace and projection scratch in place, a full analytic Solve should
// allocate only its setup (workspace + result vectors), independent of the
// iteration count. Evals/op is reported so the propagation budget of a
// solve is tracked alongside its allocations.
func BenchmarkSolveAllocs(b *testing.B) {
	topo, err := graph.Generate(graph.DefaultGenConfig(200, 20, 17))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Utility: LinearUtility{}, MinShare: 0.02, MaxIters: 500}
	b.ReportAllocs()
	b.ResetTimer()
	var evals, iters int
	for i := 0; i < b.N; i++ {
		alloc, err := Solve(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		evals += alloc.Evals
		iters += alloc.Iterations
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkSolveElasticAllocs tracks the elastic solver the same way.
func BenchmarkSolveElasticAllocs(b *testing.B) {
	topo := richDAG(b, 21, 60, 8, true)
	cfg := Config{Utility: LinearUtility{}, MaxIters: 500}
	b.ReportAllocs()
	b.ResetTimer()
	var evals int
	for i := 0; i < b.N; i++ {
		ea, err := SolveElastic(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		evals += ea.Evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
