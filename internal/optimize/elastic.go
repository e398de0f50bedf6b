// Elastic tier-1 solve: choose per-replica-slot CPU targets, letting a
// logical PE fan out into N parallel replicas when one node cannot hold
// its demand. Each active replica of PE j adds a_j·c̄ − b_j capacity but
// pays the fixed overhead b_j again (paper Eq. 6 per instance), so the
// solver trades fan-out against overhead under the same per-node capacity
// simplices as Solve. The scaling policy follows Daedalus-style model-
// driven autoscaling: replica counts fall out of the calibrated h_j
// models rather than reactive thresholds.
package optimize

import (
	"fmt"
	"math"
	"time"

	"aces/internal/graph"
	"aces/internal/sdo"
)

// ElasticAllocation is SolveElastic's output: per-replica-slot CPU
// targets plus the logical view the rest of the control plane consumes.
type ElasticAllocation struct {
	// Replica[j][r] is the CPU target of replica slot r of PE j, on the
	// node given by the topology's ReplicaPlacement. Slot 0 is the
	// primary; a slot with target 0 is dormant.
	Replica [][]float64
	// CPU[j] is the logical total Σ_r Replica[j][r].
	CPU []float64
	// Replicas[j] counts PE j's active slots (target > 0).
	Replicas []int
	// RIn and ROut are the fluid rates of the logical PEs.
	RIn, ROut []float64
	// Objective is Σ w_j U(r̄_out,j) at the solution.
	Objective float64
	// WeightedThroughput is Σ w_j r̄_out,j.
	WeightedThroughput float64
	// Iterations actually used by the solver.
	Iterations int
	// Evals counts full fluid propagations the solver performed.
	Evals int
	// ColdStart reports that the solver started from the demand-
	// proportional cold point: no WarmStartReplica was supplied, or its
	// shape did not match the topology's replica placement (a silent
	// fallback: the retarget loop's warm start always has that shape).
	ColdStart bool
	// SolveMillis is the wall-clock solve time in milliseconds.
	SolveMillis float64
	// DeadlineExceeded is set when Config.Deadline cut the ascent short.
	DeadlineExceeded bool
}

// activeSlotEps is the smallest CPU target that keeps a non-primary slot
// active; anything smaller is solver dust, snapped to 0 so the data plane
// does not spin up a replica for nanocores.
const activeSlotEps = 1e-4

// SolveElastic computes per-replica-slot CPU targets for a validated
// topology. PEs with MaxReplicas ≤ 1 degenerate to their primary slot and
// the solve matches Solve's feasible set exactly; elastic PEs may spread
// across their declared slots when the objective gains more from parallel
// capacity than it loses to the per-replica overhead tax. A parsimony
// pass then prunes replicas whose removal costs nothing, so low demand
// collapses back to one replica instead of idling N warm ones.
func SolveElastic(t *graph.Topology, cfg Config) (*ElasticAllocation, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	cfg.fillDefaults()
	order, err := t.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := t.NumPEs()

	start := time.Now()
	deadlineHit := false
	expired := func() bool {
		if cfg.Deadline <= 0 || time.Since(start) < cfg.Deadline {
			return false
		}
		deadlineHit = true
		return true
	}

	// Flatten replica slots into one decision vector. slotOf[j] lists PE
	// j's flat indices; nodeSlots[n] the flat indices placed on node n.
	var slotPE []sdo.PEID
	var slotNode []sdo.NodeID
	slotOf := make([][]int, p)
	nodeSlots := make([][]int, t.NumNodes)
	for j := 0; j < p; j++ {
		for _, n := range t.ReplicaPlacement(sdo.PEID(j)) {
			i := len(slotPE)
			slotPE = append(slotPE, sdo.PEID(j))
			slotNode = append(slotNode, n)
			slotOf[j] = append(slotOf[j], i)
			nodeSlots[n] = append(nodeSlots[n], i)
		}
	}
	ns := len(slotPE)

	pj := newSlotProjector(nodeSlots)
	cold := !warmShapeOK(cfg.WarmStartReplica, slotOf)
	x := make([]float64, ns)
	if !cold {
		warm := cfg.WarmStartReplica
		for j := 0; j < p; j++ {
			for r, i := range slotOf[j] {
				v := warm[j][r]
				if v < 0 || math.IsNaN(v) {
					v = 0
				}
				x[i] = v
			}
		}
		pj.project(x, cfg.Headroom)
	} else {
		// Cold start: spread each node's budget across its slots, blending
		// demand-proportional shares with a uniform floor. The floor keeps
		// every slot in the interior — a slot starting at 0 sits in the
		// dead zone of its rate model (a·c < b, zero capacity, zero
		// gradient) and could never be discovered by ascent.
		demand, err := t.UnitDemand()
		if err != nil {
			return nil, err
		}
		for i := 0; i < ns; i++ {
			j := slotPE[i]
			x[i] = demand[j]*t.PEs[j].Service.EffectiveCost()/float64(len(slotOf[j])) + 0.05
		}
		for _, ids := range nodeSlots {
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

	ws := newAdjoint(t, order, slotOf)
	eval := func(x []float64) float64 { return ws.eval(x, cfg.Utility) }

	best := make([]float64, ns)
	copy(best, x)
	bestObj := eval(x)
	// As in Solve, the accepted trial's objective is carried forward so
	// each iteration skips the redundant base re-evaluation.
	curObj := bestObj
	objWindow := bestObj

	grad := make([]float64, ns)
	trial := make([]float64, ns)
	step := 0.05
	iters := 0
	for it := 1; it <= cfg.MaxIters; it++ {
		if expired() {
			break
		}
		iters = it
		var base float64
		if cfg.Gradient == GradientFiniteDiff {
			base = curObj
			// The deadline is polled inside the gradient too (one gradient is
			// ns evals); a truncated gradient abandons the iteration.
			const h = 1e-7
			truncated := false
			for i := 0; i < ns; i++ {
				if i%64 == 63 && expired() {
					truncated = true
					break
				}
				old := x[i]
				x[i] = old + h
				grad[i] = (eval(x) - base) / h
				x[i] = old
			}
			if truncated {
				break
			}
		} else {
			base = ws.evalGrad(x, cfg.Utility, grad)
		}
		gnorm := 0.0
		for _, g := range grad {
			gnorm += g * g
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-14 {
			break
		}
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			for i := 0; i < ns; i++ {
				trial[i] = x[i] + step*grad[i]/gnorm
			}
			pj.project(trial, cfg.Headroom)
			if obj := eval(trial); obj > base {
				copy(x, trial)
				curObj = obj
				if obj > bestObj {
					bestObj = obj
					copy(best, x)
				}
				step *= 1.25
				if step > 0.25 {
					step = 0.25
				}
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

	// Subgradient polish along the min-composition ridges, as in Solve.
	copy(x, best)
	subIters := cfg.MaxIters - iters
	if subIters > 3000 {
		subIters = 3000
	}
	stepped := false
	for it := 1; it <= subIters; it++ {
		if expired() {
			break
		}
		iters++
		if cfg.Gradient == GradientFiniteDiff {
			const h = 1e-7
			truncated := false
			for i := 0; i < ns; i++ {
				if i%64 == 63 && expired() {
					truncated = true
					break
				}
				old := x[i]
				x[i] = old + h
				up := eval(x)
				x[i] = old - h
				down := eval(x)
				x[i] = old
				grad[i] = (up - down) / (2 * h)
			}
			if truncated {
				break
			}
		} else {
			if obj := ws.evalGrad(x, cfg.Utility, grad); obj > bestObj {
				bestObj = obj
				copy(best, x)
			}
		}
		gnorm := 0.0
		for _, g := range grad {
			gnorm += g * g
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-14 {
			break
		}
		alpha := 0.15 / math.Sqrt(float64(it))
		for i := 0; i < ns; i++ {
			x[i] += alpha * grad[i] / gnorm
		}
		pj.project(x, cfg.Headroom)
		stepped = true
		if cfg.Gradient == GradientFiniteDiff {
			if obj := eval(x); obj > bestObj {
				bestObj = obj
				copy(best, x)
			}
		}
	}
	if cfg.Gradient != GradientFiniteDiff && stepped {
		if obj := eval(x); obj > bestObj {
			bestObj = obj
			copy(best, x)
		}
	}

	// Parsimony: drop every non-primary replica whose removal does not
	// cost objective (within tolerance). The ascent happily leaves dust on
	// extra slots when capacity exceeds demand; each warm replica is a
	// buffer, a goroutine, and a b_j tax at runtime, so spend them only
	// where they buy throughput.
	tol := cfg.Tol * (math.Abs(bestObj) + 1e-12)
	for pass := 0; pass < 2; pass++ {
		pruned := false
		for i := 0; i < ns; i++ {
			j := slotPE[i]
			if i == slotOf[j][0] || best[i] == 0 {
				continue
			}
			old := best[i]
			best[i] = 0
			if obj := eval(best); bestObj-obj <= tol {
				if obj > bestObj {
					bestObj = obj
				}
				pruned = true
				continue
			}
			best[i] = old
		}
		if !pruned {
			break
		}
	}
	for i := 0; i < ns; i++ {
		if j := slotPE[i]; i != slotOf[j][0] && best[i] < activeSlotEps {
			best[i] = 0
		}
	}

	// The returned Objective is recomputed from the PRUNED slot vector:
	// parsimony removes replicas whose absence costs up to tol objective
	// (and dust-snapping a little more) without ever decrementing bestObj,
	// so echoing bestObj would overstate what the returned Replica matrix
	// achieves.
	ws.forward(best)
	rin := append([]float64(nil), ws.rin...)
	rout := append([]float64(nil), ws.rout...)
	ea := &ElasticAllocation{
		Replica:          make([][]float64, p),
		CPU:              make([]float64, p),
		Replicas:         make([]int, p),
		RIn:              rin,
		ROut:             rout,
		Objective:        ws.objective(cfg.Utility),
		Iterations:       iters,
		Evals:            ws.evals,
		ColdStart:        cold,
		SolveMillis:      float64(time.Since(start)) / float64(time.Millisecond),
		DeadlineExceeded: deadlineHit,
	}
	for j := 0; j < p; j++ {
		ea.Replica[j] = make([]float64, len(slotOf[j]))
		for r, i := range slotOf[j] {
			ea.Replica[j][r] = best[i]
			ea.CPU[j] += best[i]
			if best[i] > 0 {
				ea.Replicas[j]++
			}
		}
		ea.WeightedThroughput += t.PEs[j].Weight * rout[j]
	}
	return ea, nil
}

func warmShapeOK(warm [][]float64, slotOf [][]int) bool {
	if len(warm) != len(slotOf) {
		return false
	}
	for j := range warm {
		if len(warm[j]) != len(slotOf[j]) {
			return false
		}
	}
	return true
}

// propagateElastic is the fluid model over replica groups: PE j's
// processing capacity is the sum over its slots of max(0, x/cost − b) —
// every active replica pays the overhead tax again — and the flow
// propagation over the logical DAG is identical to propagate.
func propagateElastic(t *graph.Topology, order []sdo.PEID, slotOf [][]int, x []float64) (rin, rout []float64) {
	p := t.NumPEs()
	rin = make([]float64, p)
	rout = make([]float64, p)
	avail := make([]float64, p)
	var joinFeeds map[sdo.PEID][]float64
	for _, s := range t.Sources {
		avail[s.Target] += s.Rate
	}
	for _, j := range order {
		pe := &t.PEs[j]
		cap := 0.0
		for _, i := range slotOf[j] {
			if v := x[i]/pe.Service.EffectiveCost() - pe.Overhead; v > 0 {
				cap += v
			}
		}
		r := avail[j]
		if pe.Join {
			r = math.Inf(1)
			for _, v := range joinFeeds[j] {
				if v < r {
					r = v
				}
			}
			if len(joinFeeds[j]) < len(t.Up(j)) || math.IsInf(r, 1) {
				r = 0
			}
		}
		if cap < r {
			r = cap
		}
		rin[j] = r
		m := pe.Service.MeanMult
		if m <= 0 {
			m = 1
		}
		rout[j] = r * m
		for _, d := range t.Down(j) {
			if t.PEs[d].Join {
				if joinFeeds == nil {
					joinFeeds = make(map[sdo.PEID][]float64)
				}
				joinFeeds[d] = append(joinFeeds[d], rout[j])
			} else {
				avail[d] += rout[j]
			}
		}
	}
	return rin, rout
}

// PropagateElastic exposes the replica-group fluid model for external
// consumers: replica[j] must have one entry per replica slot of PE j
// (shape t.Replicas(j)). The hierarchical control plane uses it to
// evaluate an assembled per-region elastic solution on the full graph.
func PropagateElastic(t *graph.Topology, replica [][]float64) (rin, rout []float64, err error) {
	order, err := t.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	p := t.NumPEs()
	if len(replica) != p {
		return nil, nil, fmt.Errorf("optimize: replica matrix has %d rows, topology has %d PEs", len(replica), p)
	}
	var x []float64
	slotOf := make([][]int, p)
	for j := 0; j < p; j++ {
		if len(replica[j]) != t.Replicas(sdo.PEID(j)) {
			return nil, nil, fmt.Errorf("optimize: replica row %d has %d slots, topology declares %d", j, len(replica[j]), t.Replicas(sdo.PEID(j)))
		}
		for _, v := range replica[j] {
			slotOf[j] = append(slotOf[j], len(x))
			x = append(x, v)
		}
	}
	rin, rout = propagateElastic(t, order, slotOf, x)
	return rin, rout, nil
}
