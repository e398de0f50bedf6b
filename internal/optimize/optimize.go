// Package optimize implements ACES tier 1: the global optimization that
// assigns time-averaged CPU targets c̄_j to every PE so as to maximize the
// weighted throughput of the system (paper §V-B):
//
//	maximize   Σ_j w_j · U(r̄_out,j)
//	subject to Σ_{j ∈ node i} c̄_j ≤ 1            (per-node CPU, Eq. 4)
//	           r̄_in,j bounded by upstream output   (flow, Eq. 5)
//	           r̄_in,j = h_j(c̄_j) = a_j·c̄_j − b_j  (rate model, Eq. 6)
//
// U is strictly increasing, concave and differentiable; the paper suggests
// U(x) = x, log(x+1), or 1 − e^{−x}. The objective is evaluated through a
// fluid-flow propagation over the DAG and maximized by projected gradient
// ascent with adaptive step control; each node's allocations are projected
// back onto the capacity simplex {c ≥ 0, Σ c ≤ 1}. Concavity of the
// composition (min of concave functions, scaled and fed through concave
// increasing U) makes the maximum unique up to flat directions, so gradient
// ascent with projection converges; tests verify optima against closed
// forms and brute-force grids.
package optimize

import (
	"math"
	"time"

	"aces/internal/graph"
	"aces/internal/sdo"
	"aces/internal/sim"
)

// Utility is a concave increasing utility U(x) applied to each weighted
// output rate.
type Utility interface {
	// Value returns U(x) for x ≥ 0.
	Value(x float64) float64
	// Name identifies the utility in reports.
	Name() string
}

// LinearUtility is U(x) = x: the objective becomes the plain weighted
// throughput.
type LinearUtility struct{}

// Value implements Utility.
func (LinearUtility) Value(x float64) float64 { return x }

// Name implements Utility.
func (LinearUtility) Name() string { return "linear" }

// LogUtility is U(x) = log(1 + x/Scale): concave with diminishing returns,
// favouring balanced rate assignments. Scale sets the knee (default 1).
type LogUtility struct {
	Scale float64
}

// Value implements Utility.
func (u LogUtility) Value(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return math.Log1p(x / s)
}

// Name implements Utility.
func (LogUtility) Name() string { return "log" }

// ExpUtility is U(x) = 1 − e^{−x/Scale}, the paper's saturating example.
type ExpUtility struct {
	Scale float64
}

// Value implements Utility.
func (u ExpUtility) Value(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return 1 - math.Exp(-x/s)
}

// Name implements Utility.
func (ExpUtility) Name() string { return "exp" }

// Interface compliance checks.
var (
	_ Utility = LinearUtility{}
	_ Utility = LogUtility{}
	_ Utility = ExpUtility{}
)

// Allocation is the tier-1 output: per-PE CPU targets and the fluid rates
// they induce.
type Allocation struct {
	// CPU[j] is c̄_j, the fraction of PE j's node allocated to it.
	CPU []float64
	// RIn[j] and ROut[j] are the fluid input/output rates in SDOs/sec.
	RIn, ROut []float64
	// Objective is Σ w_j U(r̄_out,j) at the solution.
	Objective float64
	// WeightedThroughput is Σ w_j r̄_out,j (the report metric, independent
	// of the utility shape used during optimization).
	WeightedThroughput float64
	// Iterations actually used by the solver.
	Iterations int
	// Evals counts full fluid propagations the solver performed — its
	// dominant cost unit. A phase-1 iteration costs one for the gradient
	// plus one per line-search trial; a phase-2 step costs one.
	Evals int
	// ColdStart reports that the solver started from the demand-
	// proportional cold point: no warm start was supplied, or its shape
	// did not match the topology (a silent fallback the control_epoch
	// benchmark fails a warm solve for).
	ColdStart bool
	// SolveMillis is the wall-clock solve time in milliseconds.
	SolveMillis float64
	// DeadlineExceeded is set when Config.Deadline cut the ascent short:
	// the allocation is the best iterate found, not a converged optimum.
	DeadlineExceeded bool
}

// Config tunes the solver.
type Config struct {
	// Utility defaults to LogUtility{Scale: 1} — strictly concave, which
	// both matches the paper's examples and makes the optimum unique.
	Utility Utility
	// MaxIters bounds gradient iterations (default 4000).
	MaxIters int
	// Tol ends phase 1 (the line-search ascent) when the relative
	// objective improvement over a 25-iteration window falls below it
	// (default 1e-9). It ends phase 1 only: the subgradient phase 2 always
	// runs min(MaxIters − iterations, 3000) steps.
	Tol float64
	// Headroom caps each node's total allocation at this value instead of
	// 1.0, reserving CPU for system overhead (default 1.0 — no reserve).
	Headroom float64
	// MinShare floors every PE's allocation at this fraction of its node,
	// applied after optimization (rescaling the node if needed). Linear
	// utility legitimately starves weight-inefficient PEs toward zero; a
	// deployed PE still needs a minimum slice to make progress, and a
	// zero allocation would wedge blocking policies forever. 0 disables.
	// Solve applies it; SolveElastic does not.
	MinShare float64
	// WarmStart, when it has one entry per PE, replaces the cold
	// demand-proportional initial point: the solver starts from this
	// allocation (projected onto the node simplices, so an infeasible or
	// stale incumbent is safe). Periodic retargeting passes the incumbent
	// allocation here — near the old optimum the re-solve converges in a
	// handful of iterations instead of re-walking the whole ascent.
	WarmStart []float64
	// WarmStartReplica is SolveElastic's warm start: per-PE per-replica-
	// slot incumbents, shaped like the topology's replica placement. Solve
	// ignores it.
	WarmStartReplica [][]float64
	// Deadline bounds the solver's wall-clock time (0 = unbounded). When
	// it expires the solver stops at the end of the current iteration and
	// returns the best iterate found so far with DeadlineExceeded set —
	// every iterate is feasible (projection keeps it on the node
	// simplices), so a truncated solve still yields deployable targets.
	// The retarget loop uses this so a pathological topology degrades the
	// solution quality of one epoch instead of stalling the loop.
	Deadline time.Duration
}

func (c *Config) fillDefaults() {
	if c.Utility == nil {
		c.Utility = LogUtility{Scale: 1}
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 4000
	}
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.Headroom <= 0 || c.Headroom > 1 {
		c.Headroom = 1
	}
}

// Solve computes the tier-1 allocation for a validated topology: one slot
// per PE, warm-started from WarmStart when it has one entry per PE, then
// MinShare applied.
func Solve(t *graph.Topology, cfg Config) (*Allocation, error) {
	a, err := newAscent(t, cfg, false)
	if err != nil {
		return nil, err
	}
	var warm []float64
	if len(cfg.WarmStart) == t.NumPEs() {
		warm = cfg.WarmStart
	}
	best, _, err := a.run(warm, 1e-6)
	if err != nil {
		return nil, err
	}
	if a.cfg.MinShare > 0 {
		applyMinShare(t, best, a.cfg.MinShare, a.cfg.Headroom)
	}
	return a.result(best), nil
}

// applyMinShare raises every allocation to at least minShare of its node.
// When the floors push a node over budget, only the above-floor
// allocations are scaled down (iterating in case scaling drops some of
// them to the floor), so the floor is a hard guarantee as long as it is
// feasible (#PEs × minShare ≤ headroom); an infeasible floor falls back to
// an equal split.
func applyMinShare(t *graph.Topology, c []float64, minShare, headroom float64) {
	for n := 0; n < t.NumNodes; n++ {
		ids := t.OnNode(sdo.NodeID(n))
		if len(ids) == 0 {
			continue
		}
		if minShare*float64(len(ids)) >= headroom {
			for _, id := range ids {
				c[id] = headroom / float64(len(ids))
			}
			continue
		}
		for iter := 0; iter < len(ids)+1; iter++ {
			var floored, above float64
			nAbove := 0
			for _, id := range ids {
				if c[id] <= minShare {
					c[id] = minShare
					floored += minShare
				} else {
					above += c[id]
					nAbove++
				}
			}
			if floored+above <= headroom+1e-12 || nAbove == 0 {
				break
			}
			scale := (headroom - floored) / above
			done := true
			for _, id := range ids {
				if c[id] > minShare {
					c[id] *= scale
					if c[id] < minShare {
						done = false
					}
				}
			}
			if done {
				break
			}
		}
	}
}

// propagate evaluates the fluid model over a slot vector: PE j's
// processing capacity is the sum over its slots of max(0, x/cost − b) —
// every active replica pays the overhead tax again — and its input rate is
// the minimum of that capacity and the data available from its sources and
// upstream PEs (each downstream receives a full copy of the upstream output
// — §III-D); outputs scale by the mean multiplicity. Join PEs fire at the
// rate of their slowest input (the per-upstream form of Eq. 5).
func propagate(t *graph.Topology, order []sdo.PEID, first []int, x []float64) (rin, rout []float64) {
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
		for i := first[j]; i < first[j+1]; i++ {
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

// projectSimplex returns the Euclidean projection of v onto
// {x ≥ 0, Σ x = z} (Duchi et al. 2008).
func projectSimplex(v []float64, z float64) []float64 {
	out := make([]float64, len(v))
	theta, feasible := simplexThreshold(v, z, nil)
	if !feasible {
		return out
	}
	for i, x := range v {
		if x-theta > 0 {
			out[i] = x - theta
		}
	}
	return out
}

// Propagate exposes the fluid propagation for external consumers (the
// simulator uses it to derive nominal rates, and tests use it as an
// oracle).
func Propagate(t *graph.Topology, c []float64) (rin, rout []float64, err error) {
	order, err := t.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	rin, rout = propagate(t, order, slotLayout(t, false), c)
	return rin, rout, nil
}

// Perturb returns a copy of the CPU targets with each entry scaled by a
// uniform factor in [1−eps, 1+eps] and re-projected onto the node
// simplices: the "errors in allocation" robustness experiment (§VII).
func Perturb(t *graph.Topology, cpu []float64, eps float64, rng *sim.Rand) []float64 {
	out := make([]float64, len(cpu))
	for j := range cpu {
		out[j] = cpu[j] * (1 + rng.Uniform(-eps, eps))
	}
	(&projector{groups: nodeGroups(t, slotLayout(t, false))}).project(out, 1)
	return out
}
