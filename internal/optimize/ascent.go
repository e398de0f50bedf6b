package optimize

import (
	"fmt"
	"math"
	"time"

	"aces/internal/graph"
	"aces/internal/sdo"
)

// ascent is tier 1's one solver: projected gradient ascent over a slot
// vector. PE j owns slots first[j] ≤ i < first[j+1], and all slots placed
// on one node share that node's capacity simplex. Solve lays out one slot
// per PE; SolveElastic one per replica slot.
type ascent struct {
	t     *graph.Topology
	cfg   Config
	first []int
	pj    *projector
	ws    *adjoint
	start time.Time

	iters       int
	cold        bool
	deadlineHit bool
}

// newAscent validates the topology and lays out its slot vector: one slot
// per PE, or one per declared replica slot when replicas is set.
func newAscent(t *graph.Topology, cfg Config, replicas bool) (*ascent, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	cfg.fillDefaults()
	order, err := t.TopoOrder()
	if err != nil {
		return nil, err
	}
	first := slotLayout(t, replicas)
	return &ascent{
		t: t, cfg: cfg, first: first,
		pj:    &projector{groups: nodeGroups(t, first)},
		ws:    newAdjoint(t, order, first),
		start: time.Now(),
	}, nil
}

// slotLayout returns the slot vector's layout: PE j owns slots
// first[j] ≤ i < first[j+1] — one per PE, or one per declared replica slot
// when replicas is set.
func slotLayout(t *graph.Topology, replicas bool) (first []int) {
	first = make([]int, t.NumPEs()+1)
	for j := range t.PEs {
		k := 1
		if replicas {
			k = t.Replicas(sdo.PEID(j))
		}
		first[j+1] = first[j] + k
	}
	return first
}

// nodeGroups returns each node's slots: the indices sharing its capacity
// simplex.
func nodeGroups(t *graph.Topology, first []int) [][]int {
	groups := make([][]int, t.NumNodes)
	for j := range t.PEs {
		nodes := []sdo.NodeID{t.PEs[j].Node}
		if k := first[j+1] - first[j]; k > 1 {
			nodes = t.ReplicaPlacement(sdo.PEID(j))[:k]
		}
		for r, node := range nodes {
			groups[node] = append(groups[node], first[j]+r)
		}
	}
	return groups
}

func (a *ascent) expired() bool {
	if a.cfg.Deadline <= 0 || time.Since(a.start) < a.cfg.Deadline {
		return false
	}
	a.deadlineHit = true
	return true
}

// run maximizes the objective and returns the best iterate and its value.
//
// The start point is warm (one entry per slot, made feasible by
// projection, so an infeasible or stale incumbent is safe) or, when warm is
// nil, cold: each slot gets its PE's unit-load CPU demand split across the
// PE's slots plus floor, and every node is scaled to 0.95 × Headroom. The
// floor keeps the cold point in the interior — a slot starting at 0 sits in
// the dead zone of its rate model (a·c < b: zero capacity, zero gradient)
// and ascent could never discover it.
//
// Phase 1 is adaptive-step ascent along the normalized adjoint gradient
// with a backtracking line search; it ends when a line search fails or the
// best objective gains less than Tol (relative) over a 25-iteration
// window. It stalls on the non-differentiable ridges the min() composition
// creates (sharp with linear utility), so phase 2 walks along them with a
// diminishing-step subgradient pass for min(MaxIters − iterations, 3000)
// steps; per subgradient-method theory the best iterate converges even
// though individual steps may not improve. Every iterate is feasible, so a
// Deadline stop still returns deployable targets.
func (a *ascent) run(warm []float64, floor float64) (best []float64, bestObj float64, err error) {
	t, cfg, ws, pj, first := a.t, a.cfg, a.ws, a.pj, a.first
	n := first[len(first)-1]
	x := make([]float64, n)
	a.cold = warm == nil
	if !a.cold {
		for i, v := range warm {
			if v >= 0 {
				x[i] = v
			}
		}
		pj.project(x, cfg.Headroom)
	} else {
		demand, err := t.UnitDemand()
		if err != nil {
			return nil, 0, err
		}
		for j := range t.PEs {
			for i := first[j]; i < first[j+1]; i++ {
				x[i] = demand[j]*t.PEs[j].Service.EffectiveCost()/float64(first[j+1]-first[j]) + floor
			}
		}
		for _, ids := range pj.groups {
			sum := 0.0
			for _, i := range ids {
				sum += x[i]
			}
			if sum <= 0 {
				continue
			}
			for _, i := range ids {
				x[i] *= 0.95 * cfg.Headroom / sum
			}
		}
	}

	eval := func(x []float64) float64 { return ws.eval(x, cfg.Utility) }
	best = append([]float64(nil), x...)
	bestObj = eval(x)
	objWindow := bestObj
	grad := make([]float64, n)
	trial := make([]float64, n)
	step := 0.05
	for it := 1; it <= cfg.MaxIters && !a.expired(); it++ {
		a.iters = it
		// One forward pass (which doubles as the base evaluation) plus one
		// backward sweep; the step is normalized by the gradient's scale so
		// progress is uniform across problem sizes.
		base := ws.evalGrad(x, cfg.Utility, grad)
		gnorm := norm(grad)
		if gnorm < 1e-14 {
			break
		}
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			for i := range trial {
				trial[i] = x[i] + step*grad[i]/gnorm
			}
			pj.project(trial, cfg.Headroom)
			if obj := eval(trial); obj > base {
				copy(x, trial)
				if obj > bestObj {
					bestObj = obj
					copy(best, x)
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

	copy(x, best)
	stepped := false
	subIters := min(cfg.MaxIters-a.iters, 3000)
	for it := 1; it <= subIters && !a.expired(); it++ {
		a.iters++
		// The forward half of the gradient also scores the previous step's
		// iterate, so each subgradient step costs one propagation.
		if obj := ws.evalGrad(x, cfg.Utility, grad); obj > bestObj {
			bestObj = obj
			copy(best, x)
		}
		gnorm := norm(grad)
		if gnorm < 1e-14 {
			break
		}
		alpha := 0.15 / math.Sqrt(float64(it))
		for i := range x {
			x[i] += alpha * grad[i] / gnorm
		}
		pj.project(x, cfg.Headroom)
		stepped = true
	}
	if stepped {
		// The last stepped point was never scored.
		if obj := eval(x); obj > bestObj {
			bestObj = obj
			copy(best, x)
		}
	}
	return best, bestObj, nil
}

func norm(v []float64) float64 {
	s := 0.0
	for _, g := range v {
		s += g * g
	}
	return math.Sqrt(s)
}

// result re-propagates the final slot vector into an Allocation. The
// Objective is recomputed from x, not echoed from the ascent: the wrappers
// edit the best iterate afterwards (MinShare, parsimony), and the returned
// targets must be scored as returned.
func (a *ascent) result(x []float64) *Allocation {
	ws := a.ws
	ws.forward(x)
	al := &Allocation{
		CPU:              make([]float64, a.t.NumPEs()),
		RIn:              append([]float64(nil), ws.rin...),
		ROut:             append([]float64(nil), ws.rout...),
		Objective:        ws.objective(a.cfg.Utility),
		Iterations:       a.iters,
		Evals:            ws.evals,
		ColdStart:        a.cold,
		SolveMillis:      float64(time.Since(a.start)) / float64(time.Millisecond),
		DeadlineExceeded: a.deadlineHit,
	}
	for j := range al.CPU {
		for i := a.first[j]; i < a.first[j+1]; i++ {
			al.CPU[j] += x[i]
		}
		al.WeightedThroughput += a.t.PEs[j].Weight * al.ROut[j]
	}
	return al
}
