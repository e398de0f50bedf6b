// Hierarchical tier-1 solve: one warm-started regional solve per
// partition cell, coordinated by a thin root through priced cut edges.
//
// Each region solves the paper's tier-1 problem on its own sub-topology.
// Flow arriving over a cut edge appears as a virtual source feeding a
// zero-cost relay PE (so join semantics and the no-source-on-internal-PE
// invariant survive the cut); flow leaving over a cut edge earns the
// producing PE a pseudo-weight equal to the price the consuming region
// currently puts on that stream. The root runs dual-ascent sweeps: all
// regions re-solve in parallel against the latest boundary rates and
// prices (a Jacobi iteration), then the root re-prices every cut edge at
// the consuming region's measured marginal utility and reallocates the
// per-region iteration budgets toward the regions reporting the highest
// marginal return on CPU, until the assembled global objective moves
// less than ε or the epoch deadline expires. Node capacity itself is
// physical and never migrates between regions — what the root trades is
// solver attention and the prices that steer each region's output. A
// final short monolithic pass warm-started from the assembled solution
// (coarse-to-fine) closes the residual dual gap within the same
// deadline.
package hier

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"aces/internal/graph"
	"aces/internal/optimize"
	"aces/internal/sdo"
	"aces/internal/workload"
)

// relayCost is the per-SDO CPU cost of a boundary relay PE. Relays live
// alone on virtual nodes, so even a microscopic allocation yields
// capacity orders of magnitude above any real stream rate — the relay
// never becomes the binding constraint it is only there to model around.
const relayCost = 1e-12

// minSourceRate floors a relay's virtual source: AddSource rejects
// non-positive rates, and a zero-rate boundary still has to exist so the
// next sweep can raise it.
const minSourceRate = 1e-9

// Config tunes the hierarchical solve.
type Config struct {
	// Optimize is the base per-region solver configuration. MaxIters is
	// the per-region, per-sweep iteration budget BEFORE the root's
	// reallocation (default 1200 — an adjoint-gradient iteration costs a
	// handful of propagations instead of p, so the budget buys real
	// convergence, not wall time); WarmStart/WarmStartReplica, when
	// shaped for the FULL topology, seed every region from the incumbent.
	Optimize optimize.Config
	// Sweeps bounds the dual-ascent iterations (default 3).
	Sweeps int
	// Epsilon stops the sweeps when the relative change of the assembled
	// global objective falls below it (default 0.01).
	Epsilon float64
	// Deadline bounds the whole epoch's solve wall time (0 = unbounded).
	// The solve self-paces inside it: sweeps get 3/4 of the budget (the
	// last quarter is reserved for the polish), regions inherit the
	// remaining sweep budget, and a sweep predicted not to fit is
	// skipped outright — so a hierarchical solve degrades to fewer
	// sweeps rather than overrunning the epoch.
	Deadline time.Duration
	// Elastic switches the regional solves to SolveElastic. Replica
	// slots placed outside their PE's region are held at zero — a region
	// only manages capacity it owns.
	Elastic bool
	// PriceStep is the EMA factor folding freshly measured marginal
	// utilities into cut-edge prices (default 0.5).
	PriceStep float64
	// RefineIters bounds the coarse-to-fine polish: after the sweeps, a
	// short monolithic solve warm-started from the assembled regional
	// solution closes the structural dual gap of the decomposition
	// (regional solves alone plateau a few percent below monolithic).
	// Default 400 (cheap under the analytic gradient); negative
	// disables. The polish is skipped under elastic
	// solves (a global pass would re-open replica slots outside their
	// PE's region) and when the deadline is already spent.
	RefineIters int
	// Workers caps concurrent regional solves per sweep (default
	// GOMAXPROCS).
	Workers int
}

func (c *Config) fillDefaults() {
	if c.Optimize.MaxIters <= 0 {
		// An iteration costs a handful of propagations (adjoint gradient
		// plus line search), so this budget fits an epoch deadline at
		// regional scale.
		c.Optimize.MaxIters = 1200
	}
	if c.Sweeps <= 0 {
		c.Sweeps = 3
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.01
	}
	if c.PriceStep <= 0 || c.PriceStep > 1 {
		c.PriceStep = 0.5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RefineIters == 0 {
		c.RefineIters = 400
	}
}

// RegionStat reports one region's share of the last hierarchical solve.
type RegionStat struct {
	Region int `json:"region"`
	// PEs counts the region's real PEs; Relays the boundary relay PEs
	// synthesized for its cut in-edges.
	PEs    int `json:"pes"`
	Relays int `json:"relays"`
	// SolveMillis and Iterations accumulate across sweeps.
	SolveMillis float64 `json:"solve_ms"`
	Iterations  int     `json:"iters"`
	// DeadlineExceeded is set when any sweep's regional solve was cut
	// short by the epoch deadline.
	DeadlineExceeded bool `json:"deadline_exceeded,omitempty"`
	// MarginalCPU is the region's reported marginal utility of uniformly
	// scaled CPU at its final allocation (the root's budget signal).
	MarginalCPU float64 `json:"marginal_cpu"`
}

// Allocation is the assembled output of a hierarchical solve, shaped
// like the monolithic optimize.Allocation over the full topology.
type Allocation struct {
	// CPU[j] is the logical per-PE target; Replica the per-slot matrix
	// (full-topology shape, nil unless Config.Elastic).
	CPU     []float64
	Replica [][]float64
	// RIn/ROut are the fluid rates of the assembled solution evaluated
	// on the FULL topology — an honest global figure, not a sum of
	// regional self-assessments.
	RIn, ROut []float64
	// Objective is Σ w_j·U(r̄_out,j) with the ORIGINAL weights;
	// WeightedThroughput is Σ w_j·r̄_out,j.
	Objective          float64
	WeightedThroughput float64
	// Sweeps actually run; Converged whether the ε-test stopped them.
	Sweeps    int
	Converged bool
	// SolveMillis is the wall time of the whole hierarchical solve;
	// DeadlineExceeded whether Config.Deadline cut it short.
	SolveMillis      float64
	DeadlineExceeded bool
	// Regions holds per-region solve stats, indexed by region ID.
	Regions []RegionStat
}

// region is the root's bookkeeping for one partition cell.
type region struct {
	id  int
	sub *graph.Topology
	// local[g] maps a global PE ID to its local index (-1 elsewhere);
	// global[l] the inverse for real PEs (relays have no global PE).
	local  []int
	global []sdo.PEID
	// baseWeight[l] is the original weight of local PE l; prices are
	// added on top each sweep.
	baseWeight []float64
	// relays[i] describes the relay PE for external upstream ups[i]: its
	// local PE index, its source slot in sub.Sources, and the consuming
	// local PEs it feeds.
	relayLocal []int
	relaySrc   []int
	relayUp    []sdo.PEID
	relayPrice []float64
	// repSlots[l] lists, for elastic solves, the GLOBAL replica slot
	// index behind each local slot of real PE l (nil when not elastic).
	repSlots [][]int

	warm    []float64
	warmRep [][]float64
	// iterBudget is the root-assigned MaxIters for the next sweep.
	iterBudget int

	stat RegionStat
}

// Solve runs the hierarchical tier-1 solve for a validated topology and
// decomposition. The decomposition is read-only and reusable across
// epochs (the graph shape does not change at runtime); per-epoch state
// (prices, warm starts) lives inside the call.
func Solve(t *graph.Topology, d *Decomposition, cfg Config) (*Allocation, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("hier: %w", err)
	}
	if len(d.RegionOf) != t.NumPEs() {
		return nil, fmt.Errorf("hier: decomposition covers %d PEs, topology has %d", len(d.RegionOf), t.NumPEs())
	}
	cfg.fillDefaults()
	start := time.Now()
	// The sweep phase gets 3/4 of the epoch budget; the last quarter is
	// reserved for the coarse-to-fine polish (which is what the reserve
	// exists for — see below). Without the split, sweeps eat the whole
	// budget at scale and the polish never runs.
	polish := !cfg.Elastic && cfg.RefineIters > 0
	sweepBudget := cfg.Deadline
	if cfg.Deadline > 0 && polish {
		sweepBudget = cfg.Deadline * 3 / 4
	}
	budgetLeft := func(budget time.Duration) time.Duration {
		if cfg.Deadline <= 0 {
			return 0 // unbounded sentinel
		}
		left := budget - time.Since(start)
		if left < time.Millisecond {
			left = time.Millisecond
		}
		return left
	}

	// Initial incumbent: the caller's warm start, or the same
	// demand-proportional interior point the monolithic solver cold-starts
	// from. Its propagation seeds the boundary rates of sweep 1.
	p := t.NumPEs()
	c0 := make([]float64, p)
	if len(cfg.Optimize.WarmStart) == p {
		copy(c0, cfg.Optimize.WarmStart)
		for j := range c0 {
			if c0[j] < 0 || math.IsNaN(c0[j]) {
				c0[j] = 0
			}
		}
	} else {
		demand, err := t.UnitDemand()
		if err != nil {
			return nil, err
		}
		headroom := cfg.Optimize.Headroom
		if headroom <= 0 || headroom > 1 {
			headroom = 1
		}
		nodeSum := make([]float64, t.NumNodes)
		for j := 0; j < p; j++ {
			c0[j] = demand[j]*t.PEs[j].Service.EffectiveCost() + 1e-6
			nodeSum[t.PEs[j].Node] += c0[j]
		}
		for j := 0; j < p; j++ {
			c0[j] *= 0.95 * headroom / nodeSum[t.PEs[j].Node]
		}
	}
	_, rout0, err := optimize.Propagate(t, c0)
	if err != nil {
		return nil, err
	}

	// Unsaturated marginal value of one unit of input at each PE
	// (reverse-topological): the optimistic initial price of a cut edge.
	value, err := inputValues(t)
	if err != nil {
		return nil, err
	}

	regions, err := buildRegions(t, d, cfg, c0, rout0, value)
	if err != nil {
		return nil, err
	}

	// boundaryRate[u] is the latest solved output rate of PE u, consumed
	// by the relays of downstream regions on the next sweep.
	boundaryRate := append([]float64(nil), rout0...)

	util := cfg.Optimize.Utility
	if util == nil {
		util = optimize.LogUtility{Scale: 1}
	}

	best := &Allocation{Regions: make([]RegionStat, len(regions))}
	prevObj := math.Inf(-1)
	var warnedErr error
	var lastSweep time.Duration
	for sweep := 1; sweep <= cfg.Sweeps; sweep++ {
		// Sweep 1 always runs — the regional solves inherit the (already
		// expired) remaining budget and truncate internally, so even a
		// blown deadline yields deployable targets instead of an error.
		// Later sweeps are skipped PREDICTIVELY: a Jacobi round that
		// cannot finish leaves half the regions re-solved against stale
		// prices, so the budget is better spent on the polish.
		if sweep > 1 && cfg.Deadline > 0 &&
			time.Since(start)+lastSweep*105/100 >= sweepBudget {
			break
		}
		sweepStart := time.Now()
		// Root phase: refresh every region's boundary inputs and priced
		// weights from the latest global state (sequential — the subs are
		// shared with the solver goroutines only inside the barrier).
		for _, r := range regions {
			for i, lu := range r.relayLocal {
				r.sub.Sources[r.relaySrc[i]].Rate = math.Max(boundaryRate[r.relayUp[i]], minSourceRate)
				_ = lu
			}
			for l, g := range r.global {
				r.sub.PEs[l].Weight = r.baseWeight[l] + cutPrice(regions, g, r.id)
			}
		}

		// Parallel phase: independent warm-started regional solves.
		sem := make(chan struct{}, cfg.Workers)
		var wg sync.WaitGroup
		errs := make([]error, len(regions))
		for idx, r := range regions {
			wg.Add(1)
			sem <- struct{}{}
			go func(idx int, r *region) {
				defer wg.Done()
				defer func() { <-sem }()
				oc := cfg.Optimize
				oc.MaxIters = r.iterBudget
				oc.Deadline = budgetLeft(sweepBudget)
				if cfg.Elastic {
					oc.WarmStart = nil
					oc.WarmStartReplica = r.warmRep
					ea, err := optimize.SolveElastic(r.sub, oc)
					if err != nil {
						errs[idx] = err
						return
					}
					r.warmRep = ea.Replica
					r.warm = ea.CPU
					r.stat.SolveMillis += ea.SolveMillis
					r.stat.Iterations += ea.Iterations
					r.stat.DeadlineExceeded = r.stat.DeadlineExceeded || ea.DeadlineExceeded
					return
				}
				oc.WarmStart = r.warm
				oc.WarmStartReplica = nil
				alloc, err := optimize.Solve(r.sub, oc)
				if err != nil {
					errs[idx] = err
					return
				}
				r.warm = alloc.CPU
				r.stat.SolveMillis += alloc.SolveMillis
				r.stat.Iterations += alloc.Iterations
				r.stat.DeadlineExceeded = r.stat.DeadlineExceeded || alloc.DeadlineExceeded
			}(idx, r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				warnedErr = err
			}
		}
		if warnedErr != nil && best.CPU == nil {
			return nil, fmt.Errorf("hier: regional solve: %w", warnedErr)
		}
		if warnedErr != nil {
			break // keep the last good assembled solution
		}

		// Root phase: publish boundary rates, re-price cut edges, report
		// marginal CPU, reassemble and test convergence.
		for _, r := range regions {
			_, subOut, err := regionRates(r, cfg.Elastic)
			if err != nil {
				return nil, err
			}
			for l, g := range r.global {
				boundaryRate[g] = subOut[l]
			}
			reprice(r, util, cfg.PriceStep, cfg.Elastic)
			r.stat.MarginalCPU = marginalCPU(r, util, cfg.Elastic)
		}
		reallocateBudgets(regions, cfg.Optimize.MaxIters)

		obj, asm, err := assembleGlobal(t, d, regions, util, cfg.Elastic)
		if err != nil {
			return nil, err
		}
		asm.Sweeps = sweep
		lastSweep = time.Since(sweepStart)
		if best.CPU == nil || obj > best.Objective {
			keepStats := best.Regions
			*best = *asm
			best.Regions = keepStats
		}
		best.Sweeps = sweep
		if prevObj > math.Inf(-1) && math.Abs(obj-prevObj) <= cfg.Epsilon*(math.Abs(obj)+1e-12) {
			best.Converged = true
			break
		}
		prevObj = obj
	}
	if best.CPU == nil {
		return nil, fmt.Errorf("hier: no sweep completed within the deadline")
	}
	// DeadlineExceeded reflects the SWEEP phase only: the polish below is
	// opportunistic by design, so spending leftover budget on it is
	// normal operation, not truncation.
	if cfg.Deadline > 0 && time.Since(start) >= cfg.Deadline {
		best.DeadlineExceeded = true
	}

	// Coarse-to-fine polish: the regional decomposition lands a few
	// percent short of the monolithic optimum (a structural dual gap —
	// prices cannot express every cross-region trade). A short monolithic
	// solve warm-started from the assembled solution recovers most of it
	// at a fraction of a cold solve's cost. It gets at most a quarter of
	// the epoch budget: it is a refinement, not the main solve. Skipped
	// for elastic solves: a global pass would re-open replica slots
	// outside their PE's region, which the decomposition deliberately
	// holds at zero.
	if polish && !best.DeadlineExceeded {
		oc := cfg.Optimize
		oc.MaxIters = cfg.RefineIters
		oc.WarmStart = best.CPU
		oc.WarmStartReplica = nil
		oc.Deadline = budgetLeft(cfg.Deadline)
		if cfg.Deadline > 0 && oc.Deadline > cfg.Deadline/4 {
			oc.Deadline = cfg.Deadline / 4
		}
		if polished, err := optimize.Solve(t, oc); err == nil && polished.Objective > best.Objective {
			best.CPU = polished.CPU
			best.RIn = polished.RIn
			best.ROut = polished.ROut
			best.Objective = polished.Objective
			best.WeightedThroughput = polished.WeightedThroughput
		}
	}

	for i, r := range regions {
		best.Regions[i] = r.stat
	}
	best.SolveMillis = float64(time.Since(start)) / float64(time.Millisecond)
	return best, nil
}

// inputValues computes the unsaturated marginal utility of one unit of
// input at each PE: value[j] = m_j · (w_j + Σ_downstream value[d]) in
// reverse topological order (copy semantics deliver the full output to
// every downstream). This is exact when nothing saturates and serves as
// the optimistic initial cut-edge price.
func inputValues(t *graph.Topology) ([]float64, error) {
	order, err := t.TopoOrder()
	if err != nil {
		return nil, err
	}
	value := make([]float64, t.NumPEs())
	for i := len(order) - 1; i >= 0; i-- {
		j := order[i]
		m := t.PEs[j].Service.MeanMult
		if m <= 0 {
			m = 1
		}
		sum := t.PEs[j].Weight
		for _, dn := range t.Down(j) {
			sum += value[dn]
		}
		value[j] = m * sum
	}
	return value, nil
}

// cutPrice sums the prices every OTHER region currently puts on streams
// produced by global PE g — the pseudo-weight its own region optimizes
// under.
func cutPrice(regions []*region, g sdo.PEID, home int) float64 {
	sum := 0.0
	for _, r := range regions {
		if r.id == home {
			continue
		}
		for i, u := range r.relayUp {
			if u == g {
				sum += r.relayPrice[i]
			}
		}
	}
	return sum
}

// regionRates propagates a region's current solution on its sub-topology.
func regionRates(r *region, elastic bool) (rin, rout []float64, err error) {
	if elastic {
		return optimize.PropagateElastic(r.sub, r.warmRep)
	}
	return optimize.Propagate(r.sub, r.warm)
}

// regionObjective evaluates Σ w·U(rout) on the region's sub-topology at
// its current solution and CURRENT priced weights.
func regionObjective(r *region, util optimize.Utility, elastic bool) (float64, error) {
	_, rout, err := regionRates(r, elastic)
	if err != nil {
		return 0, err
	}
	obj := 0.0
	for l := range r.sub.PEs {
		if w := r.sub.PEs[l].Weight; w > 0 {
			obj += w * util.Value(rout[l])
		}
	}
	return obj, nil
}

// reprice measures, for each of the region's cut in-edges, the marginal
// utility of one more unit of boundary input at the FIXED regional
// allocation (two fluid propagations per relay — no re-solve), and folds
// it into the price with an EMA. A saturated consumer (CPU-capped at the
// boundary) reports ~0 and the upstream region stops paying for a stream
// that would be dropped; over sweeps the prices converge toward the
// coupling the monolithic solve resolves internally.
func reprice(r *region, util optimize.Utility, alpha float64, elastic bool) {
	if len(r.relaySrc) == 0 {
		return
	}
	base, err := regionObjective(r, util, elastic)
	if err != nil {
		return
	}
	for i, si := range r.relaySrc {
		old := r.sub.Sources[si].Rate
		delta := math.Max(0.05*old, 1e-3)
		r.sub.Sources[si].Rate = old + delta
		bumped, err := regionObjective(r, util, elastic)
		r.sub.Sources[si].Rate = old
		if err != nil {
			continue
		}
		marginal := (bumped - base) / delta
		if marginal < 0 {
			marginal = 0
		}
		r.relayPrice[i] = (1-alpha)*r.relayPrice[i] + alpha*marginal
	}
}

// marginalCPU reports the region's marginal utility of uniformly scaled
// CPU: Δobjective per 1% more allocation everywhere, at fixed solution
// shape. The root's budget-reallocation signal.
func marginalCPU(r *region, util optimize.Utility, elastic bool) float64 {
	base, err := regionObjective(r, util, elastic)
	if err != nil {
		return 0
	}
	const delta = 0.01
	var obj float64
	if elastic {
		scaled := make([][]float64, len(r.warmRep))
		for j, row := range r.warmRep {
			s := make([]float64, len(row))
			for k, v := range row {
				s[k] = v * (1 + delta)
			}
			scaled[j] = s
		}
		saved := r.warmRep
		r.warmRep = scaled
		obj, err = regionObjective(r, util, elastic)
		r.warmRep = saved
	} else {
		scaled := make([]float64, len(r.warm))
		for k, v := range r.warm {
			scaled[k] = v * (1 + delta)
		}
		saved := r.warm
		r.warm = scaled
		obj, err = regionObjective(r, util, elastic)
		r.warm = saved
	}
	if err != nil {
		return 0
	}
	m := (obj - base) / delta
	if m < 0 {
		m = 0
	}
	return m
}

// reallocateBudgets re-splits the total per-sweep iteration budget
// toward the regions reporting the highest marginal return on CPU — the
// root's "budget" lever. Attention is conserved (Σ budgets stays
// R × base) and every region keeps a floor so no cell starves entirely;
// the blend with a uniform share damps oscillation.
func reallocateBudgets(regions []*region, base int) {
	total := base * len(regions)
	sum := 0.0
	for _, r := range regions {
		sum += r.stat.MarginalCPU
	}
	if sum <= 0 {
		for _, r := range regions {
			r.iterBudget = base
		}
		return
	}
	floor := base / 8
	if floor < 25 {
		floor = 25
	}
	for _, r := range regions {
		share := 0.5/float64(len(regions)) + 0.5*r.stat.MarginalCPU/sum
		b := int(float64(total) * share)
		if b < floor {
			b = floor
		}
		r.iterBudget = b
	}
}

// assembleGlobal maps every region's solution back onto the full
// topology and evaluates it there with the original weights.
func assembleGlobal(t *graph.Topology, d *Decomposition, regions []*region, util optimize.Utility, elastic bool) (float64, *Allocation, error) {
	p := t.NumPEs()
	out := &Allocation{CPU: make([]float64, p)}
	if elastic {
		out.Replica = make([][]float64, p)
		for j := 0; j < p; j++ {
			out.Replica[j] = make([]float64, t.Replicas(sdo.PEID(j)))
		}
	}
	for _, r := range regions {
		for l, g := range r.global {
			out.CPU[g] = r.warm[l]
			if elastic {
				for k, slot := range r.repSlots[l] {
					out.Replica[g][slot] = r.warmRep[l][k]
				}
			}
		}
	}
	var rin, rout []float64
	var err error
	if elastic {
		rin, rout, err = optimize.PropagateElastic(t, out.Replica)
	} else {
		rin, rout, err = optimize.Propagate(t, out.CPU)
	}
	if err != nil {
		return 0, nil, err
	}
	out.RIn, out.ROut = rin, rout
	for j := 0; j < p; j++ {
		if w := t.PEs[j].Weight; w > 0 {
			out.Objective += w * util.Value(rout[j])
			out.WeightedThroughput += w * rout[j]
		}
	}
	return out.Objective, out, nil
}

// buildRegions constructs each region's sub-topology: real PEs first (in
// ascending global order, renumbered), then one relay PE per external
// upstream, each alone on a virtual node with a virtual source carrying
// the upstream's boundary rate.
func buildRegions(t *graph.Topology, d *Decomposition, cfg Config, c0, rout0, value []float64) ([]*region, error) {
	regions := make([]*region, len(d.Regions))
	for ri := range d.Regions {
		cell := &d.Regions[ri]
		r := &region{
			id:         ri,
			local:      make([]int, t.NumPEs()),
			global:     append([]sdo.PEID(nil), cell.PEs...),
			iterBudget: cfg.Optimize.MaxIters,
		}
		for g := range r.local {
			r.local[g] = -1
		}
		for l, g := range r.global {
			r.local[g] = l
		}

		// Node remap: the region's real nodes keep their relative order;
		// relay virtual nodes are appended after them.
		nodeLocal := make(map[sdo.NodeID]sdo.NodeID, len(cell.Nodes))
		for i, n := range cell.Nodes {
			nodeLocal[n] = sdo.NodeID(i)
		}

		// External upstreams feeding this region, ascending for
		// determinism; each becomes one relay whose output is a copy of
		// the upstream's boundary stream.
		extSet := map[sdo.PEID]bool{}
		var ext []sdo.PEID
		for _, g := range r.global {
			for _, u := range t.Up(g) {
				if r.local[u] < 0 && !extSet[u] {
					extSet[u] = true
					ext = append(ext, u)
				}
			}
		}
		sortPEIDs(ext)

		sub := graph.New(len(cell.Nodes)+len(ext), t.DefaultBufferSize)
		if cfg.Elastic {
			r.repSlots = make([][]int, len(r.global))
		}
		for l, g := range r.global {
			pe := t.PEs[g]
			cp := graph.PE{
				Name:       pe.Name,
				Node:       nodeLocal[pe.Node],
				Weight:     pe.Weight,
				Service:    pe.Service,
				Overhead:   pe.Overhead,
				BufferSize: pe.BufferSize,
				Join:       pe.Join,
			}
			if cfg.Elastic && t.Replicas(g) > 1 {
				// Keep only the replica slots whose node the region owns:
				// a region cannot set targets on capacity it doesn't hold.
				placement := t.ReplicaPlacement(g)
				for slot, n := range placement {
					ln, ok := nodeLocal[n]
					if !ok {
						continue
					}
					r.repSlots[l] = append(r.repSlots[l], slot)
					if slot > 0 {
						cp.ReplicaNodes = append(cp.ReplicaNodes, ln)
					}
				}
				if n := len(r.repSlots[l]); n > 1 {
					cp.MaxReplicas = n
					cp.ReplicaNodes = cp.ReplicaNodes[:n-1]
				} else {
					cp.ReplicaNodes = nil
				}
			} else if cfg.Elastic {
				r.repSlots[l] = []int{0}
			}
			sub.AddPE(cp)
			r.baseWeight = append(r.baseWeight, pe.Weight)
		}
		for i, u := range ext {
			lid := sub.AddPE(graph.PE{
				Name:     fmt.Sprintf("relay-%d", u),
				Node:     sdo.NodeID(len(cell.Nodes) + i),
				Service:  workload.ServiceParams{T0: relayCost, T1: relayCost, Rho: 0, MeanMult: 1},
				Overhead: 0,
			})
			r.relayLocal = append(r.relayLocal, int(lid))
			r.relayUp = append(r.relayUp, u)
			r.baseWeight = append(r.baseWeight, 0)
		}

		// Internal edges, then relay→consumer edges.
		for _, e := range t.Edges {
			lf, lt := r.local[e.From], r.local[e.To]
			if lf >= 0 && lt >= 0 {
				if err := sub.Connect(sdo.PEID(lf), sdo.PEID(lt)); err != nil {
					return nil, fmt.Errorf("hier: region %d: %w", ri, err)
				}
			}
		}
		for i, u := range ext {
			lu := sdo.PEID(r.relayLocal[i])
			price := 0.0
			for _, dn := range t.Down(u) {
				ld := r.local[dn]
				if ld < 0 {
					continue
				}
				if err := sub.Connect(lu, sdo.PEID(ld)); err != nil {
					return nil, fmt.Errorf("hier: region %d relay: %w", ri, err)
				}
				price += value[dn]
			}
			r.relayPrice = append(r.relayPrice, price)
		}

		// Original sources feeding region-owned PEs, then the relays'
		// virtual boundary sources.
		for _, s := range t.Sources {
			if l := r.local[s.Target]; l >= 0 {
				if err := sub.AddSource(graph.Source{Stream: s.Stream, Target: sdo.PEID(l), Rate: s.Rate, Burst: s.Burst}); err != nil {
					return nil, fmt.Errorf("hier: region %d: %w", ri, err)
				}
			}
		}
		for i := range ext {
			if err := sub.AddSource(graph.Source{
				Stream: sdo.StreamID(1_000_000 + i),
				Target: sdo.PEID(r.relayLocal[i]),
				Rate:   math.Max(rout0[ext[i]], minSourceRate),
				Burst:  graph.BurstSpec{Kind: graph.BurstDeterministic},
			}); err != nil {
				return nil, fmt.Errorf("hier: region %d relay source: %w", ri, err)
			}
			r.relaySrc = append(r.relaySrc, len(sub.Sources)-1)
		}
		if err := sub.Validate(); err != nil {
			return nil, fmt.Errorf("hier: region %d sub-topology: %w", ri, err)
		}
		r.sub = sub

		// Warm start: incumbent targets for real PEs, a nominal sliver
		// for relays (projection keeps them feasible; their own virtual
		// nodes mean the sliver is never contended).
		r.warm = make([]float64, sub.NumPEs())
		for l, g := range r.global {
			r.warm[l] = c0[g]
		}
		for _, lr := range r.relayLocal {
			r.warm[lr] = 1e-6
		}
		if cfg.Elastic {
			r.warmRep = make([][]float64, sub.NumPEs())
			warmFull := cfg.Optimize.WarmStartReplica
			for l, g := range r.global {
				row := make([]float64, len(r.repSlots[l]))
				if len(warmFull) == t.NumPEs() && len(warmFull[g]) == t.Replicas(g) {
					for k, slot := range r.repSlots[l] {
						row[k] = warmFull[g][slot]
					}
				} else {
					row[0] = c0[g]
				}
				r.warmRep[l] = row
			}
			for _, lr := range r.relayLocal {
				r.warmRep[lr] = []float64{1e-6}
			}
		}
		r.stat = RegionStat{Region: ri, PEs: len(r.global), Relays: len(ext)}
		regions[ri] = r
	}
	return regions, nil
}

func sortPEIDs(ids []sdo.PEID) {
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k] < ids[k-1]; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
}
