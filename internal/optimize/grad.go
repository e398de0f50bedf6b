// Adjoint (reverse-mode) gradients for the tier-1 fluid model.
//
// The objective Σ_j w_j·U(r̄_out,j) is a composition of min() and affine
// maps over the DAG (Eqs. 4–6): each PE's input rate is the minimum of a
// capacity term (affine in its CPU share, clamped at the overhead dead
// zone) and a flow term (a sum of upstream copies, or their minimum at a
// join). A finite-difference gradient therefore costs one full fluid
// propagation per decision variable — O(p²) per ascent iteration, the
// quadratic wall that caps monolithic solve sizes. But the same structure
// is exactly reverse-mode differentiable: ONE forward pass records which
// branch of every min() is active, and ONE backward sweep in reverse
// topological order pushes ∂obj/∂r̄_out through multiplicity, join-min and
// copy-fanout edges down to ∂obj/∂c̄_j — the whole gradient for the price
// of a single propagation.
//
// Subgradient choices on ties (the objective is piecewise smooth, so a
// consistent selection is required, not a unique derivative):
//
//   - capacity vs flow: the forward model takes the capacity branch only
//     when cap < flow STRICTLY; a tie routes the adjoint through the flow
//     branch. ∂obj/∂c̄_j = 0 there matches forward differences (raising
//     c̄_j at a tie does not raise the rate), and the upstream leak is the
//     LEFT derivative (lowering the feed lowers the rate) — a valid
//     supergradient that keeps ascent moving at the exactly-balanced
//     points symmetric cold starts produce. The exception is a DEAD tie,
//     cap == flow == 0 (a dead-zone clamp meeting a dead upstream chain —
//     common, not measure-zero): the rate is pinned at 0 in every
//     direction, so the adjoint is dropped rather than leaked through a
//     binding zero-capacity constraint.
//   - join feeds: the minimum feed is the FIRST minimizer in Up() order;
//     tied feeds after it get zero (the left derivative again: lowering
//     the chosen feed lowers the min). Deterministic, so repeated
//     gradients at the same point agree. A min of 0 tied across TWO OR
//     MORE feeds drops the adjoint instead: raising any single feed
//     cannot raise the min (another feed still pins it at 0) and rates
//     cannot go below 0, so the objective is flat in every feed
//     direction — zero-rate branches meeting at a join must not leak
//     phantom gradient into each other's upstream chains.
//   - overhead dead zone: a (slot) capacity term contributes gradient
//     only when c̄/cost − overhead ≥ 0; strictly inside the dead zone the
//     clamp is active and the derivative is 0, while AT the boundary the
//     right (escape) derivative 1/cost is taken — again the
//     forward-difference choice, and the one that lets ascent lift a
//     capacity-starved PE off zero instead of declaring a flat optimum.
package optimize

import (
	"math"
	"sort"

	"aces/internal/graph"
	"aces/internal/sdo"
)

// UtilityDeriv is the optional derivative extension of Utility. The
// adjoint engine uses it when present and falls back to a central
// difference on the SCALAR utility (cheap — no fluid propagation) for
// custom utilities that only implement Value.
type UtilityDeriv interface {
	// Deriv returns U′(x) for x ≥ 0.
	Deriv(x float64) float64
}

// Deriv implements UtilityDeriv: U(x) = x ⇒ U′(x) = 1.
func (LinearUtility) Deriv(float64) float64 { return 1 }

// Deriv implements UtilityDeriv: U(x) = log(1 + x/s) ⇒ U′(x) = 1/(s + x).
func (u LogUtility) Deriv(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return 1 / (s + x)
}

// Deriv implements UtilityDeriv: U(x) = 1 − e^{−x/s} ⇒ U′(x) = e^{−x/s}/s.
func (u ExpUtility) Deriv(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return math.Exp(-x/s) / s
}

// Interface compliance checks.
var (
	_ UtilityDeriv = LinearUtility{}
	_ UtilityDeriv = LogUtility{}
	_ UtilityDeriv = ExpUtility{}
)

// utilityDeriv returns U′(x), via UtilityDeriv when implemented.
func utilityDeriv(u Utility, x float64) float64 {
	if d, ok := u.(UtilityDeriv); ok {
		return d.Deriv(x)
	}
	const h = 1e-6
	lo := x - h
	if lo < 0 {
		lo = 0
	}
	return (u.Value(x+h) - u.Value(lo)) / (x + h - lo)
}

// adjoint is the solver's fluid-model workspace: a forward pass that
// matches propagate exactly while recording active branches, plus the
// reverse sweep. All scratch is allocated once per solve, so the hot
// ascent loop performs zero allocations per evaluation (propagate itself
// re-allocates rate vectors and a join map every call).
type adjoint struct {
	t     *graph.Topology
	order []sdo.PEID
	first []int // PE j's slots are first[j] ≤ i < first[j+1]

	// Static per-PE model terms, snapshotted at construction.
	src  []float64 // direct source rate feeding each PE
	cost []float64 // Service.EffectiveCost()
	mult []float64 // MeanMult floored at 1

	// Forward-pass state (valid after forward()).
	rin, rout []float64
	capped    []bool  // capacity branch active (cap < flow strictly)
	dead      []bool  // cap == flow == 0: rate pinned, adjoint drops
	argmin    []int32 // producer of a join's minimum feed (-1 none)

	adj []float64 // ∂obj/∂r̄_out scratch for the backward sweep
	// evals counts forward propagations — the solver's dominant cost unit,
	// reported as Allocation.Evals.
	evals int
}

// newAdjoint builds a workspace for the topology over the slot layout
// first.
func newAdjoint(t *graph.Topology, order []sdo.PEID, first []int) *adjoint {
	p := t.NumPEs()
	a := &adjoint{
		t: t, order: order, first: first,
		src: make([]float64, p), cost: make([]float64, p), mult: make([]float64, p),
		rin: make([]float64, p), rout: make([]float64, p),
		capped: make([]bool, p), dead: make([]bool, p), argmin: make([]int32, p),
		adj: make([]float64, p),
	}
	for _, s := range t.Sources {
		a.src[s.Target] += s.Rate
	}
	for j := range t.PEs {
		a.cost[j] = t.PEs[j].Service.EffectiveCost()
		m := t.PEs[j].Service.MeanMult
		if m <= 0 {
			m = 1
		}
		a.mult[j] = m
	}
	return a
}

// forward runs the fluid propagation at x, recording the active branch of
// every min(). Semantically identical to propagate: in
// topological order every upstream is settled before its consumers, so a
// join's feeds are exactly the outputs of its upstream PEs and a non-join's
// availability is its source rate plus the sum of upstream copies.
func (a *adjoint) forward(x []float64) {
	t := a.t
	for _, j := range a.order {
		pe := &t.PEs[j]
		var cap float64
		for _, xi := range x[a.first[j]:a.first[j+1]] {
			if v := xi/a.cost[j] - pe.Overhead; v > 0 {
				cap += v
			}
		}
		var flow float64
		am := int32(-1)
		if pe.Join {
			ups := t.Up(j)
			if len(ups) > 0 {
				flow = math.Inf(1)
				ties := 0
				for _, u := range ups {
					if a.rout[u] < flow {
						flow = a.rout[u]
						am = int32(u)
						ties = 1
					} else if a.rout[u] == flow {
						ties++
					}
				}
				if flow == 0 && ties > 1 {
					// Multiply-tied zero min: flat in every feed direction.
					am = -1
				}
			}
		} else {
			flow = a.src[j]
			for _, u := range t.Up(j) {
				flow += a.rout[u]
			}
		}
		a.argmin[j] = am
		r := flow
		capped := cap < flow
		if capped {
			r = cap
		}
		a.capped[j] = capped
		a.dead[j] = cap == 0 && flow == 0
		a.rin[j] = r
		a.rout[j] = r * a.mult[j]
	}
	a.evals++
}

// objective evaluates Σ w_j·U(r̄_out,j) over the last forward pass.
func (a *adjoint) objective(util Utility) float64 {
	obj := 0.0
	for j := range a.t.PEs {
		if w := a.t.PEs[j].Weight; w > 0 {
			obj += w * util.Value(a.rout[j])
		}
	}
	return obj
}

// eval is one forward propagation plus the objective — the line-search
// evaluation, allocation-free.
func (a *adjoint) eval(x []float64, util Utility) float64 {
	a.forward(x)
	return a.objective(util)
}

// evalGrad computes the objective AND its full gradient with one forward
// and one backward sweep. grad has one entry per slot.
func (a *adjoint) evalGrad(x []float64, util Utility, grad []float64) float64 {
	a.forward(x)
	obj := a.objective(util)
	a.backward(x, util, grad)
	return obj
}

// backward is the reverse-topological adjoint sweep over the branches the
// last forward pass recorded. For each PE j (downstream consumers already
// settled): the seed w_j·U′(r̄_out,j) joins the accumulated downstream
// adjoint; multiplicity scales it onto the input (r̄_out = m·r̄_in); then
// the active branch routes it — a capacity-limited PE converts it into
// ∂obj/∂c̄ = adjoint/EffectiveCost on its live (non-dead-zone) capacity
// terms, a flow-limited join passes it to its minimum feed's producer, and
// a flow-limited non-join fans it to every upstream (each downstream
// receives a full copy of the upstream output, so copy-fanout adjoints
// sum on the producer).
func (a *adjoint) backward(x []float64, util Utility, grad []float64) {
	t := a.t
	for i := range a.adj {
		a.adj[i] = 0
	}
	for i := range grad {
		grad[i] = 0
	}
	for k := len(a.order) - 1; k >= 0; k-- {
		j := a.order[k]
		pe := &t.PEs[j]
		ad := a.adj[j]
		if w := pe.Weight; w > 0 {
			ad += w * utilityDeriv(util, a.rout[j])
		}
		if ad == 0 || a.dead[j] {
			continue
		}
		adIn := ad * a.mult[j]
		if a.capped[j] {
			for i := a.first[j]; i < a.first[j+1]; i++ {
				if x[i]/a.cost[j]-pe.Overhead >= 0 {
					grad[i] += adIn / a.cost[j]
				}
			}
			continue
		}
		if pe.Join {
			if u := a.argmin[j]; u >= 0 {
				a.adj[u] += adIn
			}
			continue
		}
		for _, u := range t.Up(j) {
			a.adj[u] += adIn
		}
	}
}

// projector projects a decision vector onto the per-node capacity
// simplices, reusing its gather and sort scratch: the ascent projects every
// trial point, so per-call buffers would be per-iteration garbage.
type projector struct {
	// groups[g] lists the decision-vector indices sharing node g's
	// capacity simplex.
	groups [][]int
	vals   []float64 // gather scratch
	sorted []float64 // descending sort scratch for the threshold search
}

// project projects x's entries, group by group, onto {v ≥ 0, Σ v ≤
// headroom}. Allocation-free after the scratch warms up.
func (pj *projector) project(x []float64, headroom float64) {
	for _, ids := range pj.groups {
		if len(ids) == 0 {
			continue
		}
		if cap(pj.vals) < len(ids) {
			pj.vals = make([]float64, 0, 2*len(ids))
			pj.sorted = make([]float64, 0, 2*len(ids))
		}
		vals := pj.vals[:0]
		sum := 0.0
		for _, id := range ids {
			v := x[id]
			if v < 0 {
				v = 0
			}
			vals = append(vals, v)
			sum += v
		}
		if sum <= headroom {
			for i, id := range ids {
				x[id] = vals[i]
			}
			continue
		}
		theta, feasible := simplexThreshold(vals, headroom, pj.sorted[:0])
		for i, id := range ids {
			if !feasible {
				x[id] = 0
				continue
			}
			if v := vals[i] - theta; v > 0 {
				x[id] = v
			} else {
				x[id] = 0
			}
		}
	}
}

// simplexThreshold computes the Euclidean simplex-projection threshold θ
// (Duchi et al. 2008) for v onto {x ≥ 0, Σ x = z} using the provided sort
// scratch. feasible is false when every component clips to zero.
func simplexThreshold(v []float64, z float64, scratch []float64) (theta float64, feasible bool) {
	u := append(scratch, v...)
	sort.Float64s(u) // ascending; walk it backwards for the descending scan
	n := len(u)
	var css, cssAtRho float64
	rho := -1
	for i := 0; i < n; i++ {
		ui := u[n-1-i]
		css += ui
		if ui-(css-z)/float64(i+1) > 0 {
			rho = i
			cssAtRho = css
		}
	}
	if rho < 0 {
		return 0, false
	}
	return (cssAtRho - z) / float64(rho+1), true
}
