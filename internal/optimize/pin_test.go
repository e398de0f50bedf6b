package optimize

import (
	"math"
	"testing"

	"aces/internal/graph"
	"aces/internal/sim"
)

// pinResult is what a solve is pinned by: exact iteration and propagation
// counts, the objective, and an index-weighted CPU fingerprint
// Σ_k (k+1)·x_k over the returned vector (the flattened Replica matrix for
// elastic solves), which a permuted or shifted allocation cannot match.
type pinResult struct {
	iters, evals int
	obj, cpu     float64
}

func cpuFingerprint(x []float64) float64 {
	s := 0.0
	for k, v := range x {
		s += float64(k+1) * v
	}
	return s
}

func flatten(rep [][]float64) []float64 {
	var x []float64
	for _, row := range rep {
		x = append(x, row...)
	}
	return x
}

// pinCases solves a fixed set of seeded topologies through every entry
// point: Solve cold under three utilities, Solve warm with MinShare and
// Headroom, and SolveElastic cold and warm (on a replicated richDAG and on
// a generated topology without replica slots).
func pinCases(t *testing.T) map[string]pinResult {
	t.Helper()
	flat := richDAG(t, 42, 24, 4, false)
	gen, err := graph.Generate(graph.DefaultGenConfig(120, 12, 7))
	if err != nil {
		t.Fatal(err)
	}
	elastic := richDAG(t, 8, 40, 6, true)
	out := map[string]pinResult{}
	solve := func(name string, topo *graph.Topology, cfg Config) *Allocation {
		a, err := Solve(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = pinResult{a.Iterations, a.Evals, a.Objective, cpuFingerprint(a.CPU)}
		return a
	}
	solveElastic := func(name string, topo *graph.Topology, cfg Config) *ElasticAllocation {
		ea, err := SolveElastic(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = pinResult{ea.Iterations, ea.Evals, ea.Objective, cpuFingerprint(flatten(ea.Replica))}
		return ea
	}
	solve("flat/cold/linear", flat, Config{Utility: LinearUtility{}, MaxIters: 600})
	// Default MaxIters with a loose Tol: phase 1 ends on the Tol window.
	solve("flat/cold/tol", flat, Config{Utility: LinearUtility{}, Tol: 1e-4})
	solve("flat/cold/exp", flat, Config{Utility: ExpUtility{Scale: 50}, MaxIters: 600})
	cold := solve("flat/cold/log", flat, Config{Utility: LogUtility{Scale: 20}, MaxIters: 600})
	solve("flat/warm/minshare-headroom", flat, Config{
		Utility: LinearUtility{}, MaxIters: 600, MinShare: 0.02, Headroom: 0.9,
		WarmStart: Perturb(flat, cold.CPU, 0.3, sim.NewRand(5)),
	})
	genCold := solve("gen/cold/linear", gen, Config{Utility: LinearUtility{}, MaxIters: 800})
	solve("gen/warm/minshare", gen, Config{
		Utility: LinearUtility{}, MaxIters: 800, MinShare: 0.01,
		WarmStart: Perturb(gen, genCold.CPU, 0.2, sim.NewRand(6)),
	})
	ea := solveElastic("elastic/cold/linear", elastic, Config{Utility: LinearUtility{}, MaxIters: 600})
	warm := make([][]float64, len(ea.Replica))
	for j, row := range ea.Replica {
		for r, v := range row {
			warm[j] = append(warm[j], v*(1+0.1*float64((j+r)%3-1)))
		}
	}
	solveElastic("elastic/cold/tol", elastic, Config{Utility: LinearUtility{}, Tol: 1e-4})
	solveElastic("elastic/warm/log", elastic, Config{Utility: LogUtility{Scale: 20}, MaxIters: 600, WarmStartReplica: warm})
	genEa := solveElastic("gen/elastic/cold", gen, Config{Utility: LinearUtility{}, MaxIters: 800})
	solveElastic("gen/elastic/warm", gen, Config{
		Utility: LinearUtility{}, MaxIters: 800, WarmStartReplica: genEa.Replica,
	})
	return out
}

// TestSolverPinned holds the solver's exact trajectory on seeded inputs:
// counts must match exactly, objective and CPU fingerprint to 1e-12
// relative. A change that moves the ascent on purpose (a new stop rule, a
// different step schedule) re-records this table and states the
// before/after. The table was recorded while Solve and SolveElastic still
// ran separate ascent loops; merging them into one engine left every entry
// unchanged.
func TestSolverPinned(t *testing.T) {
	want := map[string]pinResult{
		"elastic/cold/linear":         {600, 1059, 1289.0234116731617, 190.57877962023383},
		"elastic/cold/tol":            {3125, 3317, 1358.7554780305047, 182.7891542747694},
		"elastic/warm/log":            {600, 815, 21.248023341140513, 196.35360407879455},
		"flat/cold/exp":               {600, 1064, 7.3644050605286564, 54.622172438455408},
		"flat/cold/linear":            {600, 1056, 943.7460979274133, 48.446414019030968},
		"flat/cold/log":               {600, 878, 15.459459328124167, 52.133442882414911},
		"flat/cold/tol":               {3175, 3423, 952.43096213314482, 47.296755008217296},
		"flat/warm/minshare-headroom": {600, 771, 789.11280993411322, 44.481032106892414},
		"gen/cold/linear":             {800, 1300, 1378.2678699510839, 980.84018951121016},
		"gen/elastic/cold":            {800, 1112, 1380.5743789734681, 979.94827852671585},
		"gen/elastic/warm":            {800, 1122, 1384.8503873975087, 980.52368629297791},
		"gen/warm/minshare":           {800, 1155, 1373.1247113597985, 976.90641807815416},
	}
	got := pinCases(t)
	if len(got) != len(want) {
		t.Fatalf("pinned %d cases, solved %d", len(want), len(got))
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(math.Abs(b)+1) }
	for name, w := range want {
		g := got[name]
		if g.iters != w.iters || g.evals != w.evals || !close(g.obj, w.obj) || !close(g.cpu, w.cpu) {
			t.Errorf("%s: got iters %d evals %d obj %.17g cpu %.17g, pinned %d %d %.17g %.17g",
				name, g.iters, g.evals, g.obj, g.cpu, w.iters, w.evals, w.obj, w.cpu)
		}
	}
}
