package experiments

import (
	"fmt"
	"io"
	"time"

	"aces/internal/graph"
	"aces/internal/hier"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/streamsim"
)

// HierOptions scales E13, the hierarchical-control-plane experiment: at
// each topology scale, the monolithic tier-1 solve and the
// region-decomposed hierarchical solve (internal/hier) run on the same
// generated deployment, and their wall time and weighted throughput are
// compared under a fixed per-epoch deadline. A closing simulator run
// validates the targets end-to-end: the same deployment is driven from a
// naive uniform allocation with a periodic re-solve installed through
// streamsim.StartRetarget, once with the deadline-bounded monolithic
// solver and once with the hierarchical one. The zero value picks the
// full scale ladder; Quick shrinks everything for tests.
type HierOptions struct {
	// Scales lists the PE counts of the ladder (default 500, 1000, 2000,
	// 5000, 10000), nodes = PEs/PEsPerNode.
	Scales     []int
	PEsPerNode int
	// Seed drives topology generation and the simulator.
	Seed int64
	// RegionPEs is the target region size; each scale uses
	// max(2, PEs/RegionPEs) regions so regions stay near-constant in size
	// and region count grows with the deployment (default 500).
	RegionPEs int
	// MonoIters is the monolithic gradient budget (default 2500, the
	// paper-scale suite's solver budget). The monolithic solve gets a
	// GENEROUS wall cap of 4× Deadline — without one the ladder's large
	// scales would run for hours — and its wall time is compared against
	// the 1× deadline afterward, so the quality bar it sets is honest
	// where it converges and its failure to fit the epoch is the measured
	// result where it does not.
	MonoIters int
	// RegionIters is the per-region, per-sweep budget before the root's
	// reallocation (default 90); Sweeps bounds the dual-ascent rounds
	// (default 2; the coarse-to-fine polish inside hier.Solve does the
	// final quality lifting).
	RegionIters int
	Sweeps      int
	// Deadline is the per-epoch solve budget — one minute, the paper's
	// tier-1 cadence (it re-solves on the order of minutes). The
	// hierarchical solve gets it enforced; the monolithic solve is
	// measured against it.
	Deadline time.Duration
	// SimPEs scales the validation simulation (default: the largest
	// ladder scale); SimDuration and SimEvery set its horizon and
	// retarget period in simulated seconds (defaults 8 and 1.5).
	SimPEs      int
	SimDuration float64
	SimEvery    float64
	// GradPEs scales the gradient-engine acceptance row (default 1000,
	// the scale the adjoint-gradient criterion is stated at); GradIters
	// is both engines' iteration budget (default 2500) and
	// GradFDDeadline caps the finite-difference reference solve — left
	// uncapped it runs for minutes (default 30s full, 8s quick; the
	// analytic solve needs no cap).
	GradPEs        int
	GradIters      int
	GradFDDeadline time.Duration
	// Quick shrinks the ladder and the simulation for tests.
	Quick bool
}

func (o *HierOptions) fillDefaults() {
	if o.Quick {
		// The quick ladder is a prefix of the full one, so its rows read
		// against the full ladder's at the same scales.
		if len(o.Scales) == 0 {
			o.Scales = []int{500, 1000, 2000}
		}
		if o.MonoIters <= 0 {
			o.MonoIters = 600
		}
		if o.SimDuration <= 0 {
			o.SimDuration = 5
		}
		if o.GradFDDeadline <= 0 {
			// Bounds CI cost while leaving the ≥10× wall-time gate an ample
			// machine-speed margin (the analytic solve runs ~100-200ms at
			// this scale on a developer box).
			o.GradFDDeadline = 8 * time.Second
		}
	}
	if len(o.Scales) == 0 {
		o.Scales = []int{500, 1000, 2000, 5000, 10000}
	}
	if o.PEsPerNode <= 0 {
		o.PEsPerNode = 10
	}
	if o.Seed == 0 {
		o.Seed = 13
	}
	if o.RegionPEs <= 0 {
		o.RegionPEs = 250
	}
	if o.MonoIters <= 0 {
		o.MonoIters = 2500
	}
	if o.RegionIters <= 0 {
		// Sized for the analytic gradient: a region iteration costs a
		// handful of propagations instead of region-size, so the budget
		// buys convergence inside the same sweep deadline.
		o.RegionIters = 400
	}
	if o.Sweeps <= 0 {
		o.Sweeps = 2
	}
	if o.Deadline <= 0 {
		o.Deadline = time.Minute
	}
	if o.SimPEs <= 0 {
		o.SimPEs = o.Scales[len(o.Scales)-1]
	}
	if o.SimDuration <= 0 {
		o.SimDuration = 8
	}
	if o.SimEvery <= 0 {
		o.SimEvery = 2.5
	}
	if o.GradPEs <= 0 {
		o.GradPEs = 1000
	}
	if o.GradIters <= 0 {
		o.GradIters = 2500
	}
	if o.GradFDDeadline <= 0 {
		o.GradFDDeadline = 30 * time.Second
	}
}

// HierScaleRow is one ladder point: monolithic vs hierarchical solve on
// the same generated topology.
type HierScaleRow struct {
	PEs     int `json:"pes"`
	Nodes   int `json:"nodes"`
	Regions int `json:"regions"`
	// CutFrac is the fraction of stream volume crossing region boundaries
	// under the partition.
	CutFrac float64 `json:"cut_frac"`
	// MonoMillis/MonoIters time the monolithic solve (wall-capped at 4×
	// the deadline); MonoBlown marks it exceeding the per-epoch deadline
	// — the scale wall the hierarchy exists to move. MonoConverged is
	// false when even the 4× budget truncated it: past that point the
	// monolithic number is a 4×-budget competitor, not an oracle, and
	// the quality gate drops from 95% to 90%.
	MonoMillis    float64 `json:"mono_ms"`
	MonoIters     int     `json:"mono_iters"`
	MonoWT        float64 `json:"mono_wt"`
	MonoBlown     bool    `json:"mono_deadline_blown"`
	MonoConverged bool    `json:"mono_converged"`
	// HierMillis/HierSweeps time the deadline-bounded hierarchical solve;
	// HierBlown is set when even the hierarchy was truncated.
	HierMillis    float64 `json:"hier_ms"`
	HierSweeps    int     `json:"hier_sweeps"`
	HierConverged bool    `json:"hier_converged"`
	HierBlown     bool    `json:"hier_deadline_blown,omitempty"`
	HierWT        float64 `json:"hier_wt"`
	// HierFrac is hierarchical / monolithic weighted throughput — the
	// decomposition's price, gated at ≥ 0.95.
	HierFrac float64 `json:"hier_frac"`
}

// GradScaleRow is the gradient-engine acceptance row: one generated
// topology at GradPEs solved twice with identical budgets — the analytic
// adjoint engine to convergence, and the finite-difference reference under
// GradFDDeadline (uncapped it runs for minutes; the cap is exactly the
// O(p²) wall the adjoint removes). Evals counts full fluid propagations,
// the machine-independent cost unit behind the wall-time ratio.
type GradScaleRow struct {
	PEs      int     `json:"pes"`
	AnMillis float64 `json:"analytic_ms"`
	AnEvals  int     `json:"analytic_evals"`
	AnWT     float64 `json:"analytic_wt"`
	FDMillis float64 `json:"fd_ms"`
	FDEvals  int     `json:"fd_evals"`
	FDWT     float64 `json:"fd_wt"`
	// Speedup is fd_ms / analytic_ms; Frac is analytic_wt / fd_wt. The
	// acceptance gate requires Frac ≥ 0.99 (within 1% of the reference
	// objective) and Speedup ≥ 10.
	Speedup float64 `json:"speedup"`
	Frac    float64 `json:"frac"`
}

// HierSimRow is the end-to-end validation run: simulated weighted
// throughput under uniform (never retargeted), monolithic-retargeted and
// hierarchically-retargeted targets, all re-solving on the same period
// under the same per-epoch deadline.
type HierSimRow struct {
	PEs   int `json:"pes"`
	Nodes int `json:"nodes"`
	// Epochs counts installed re-solves per retargeted run.
	Epochs    int     `json:"epochs"`
	UniformWT float64 `json:"uniform_wt"`
	MonoWT    float64 `json:"mono_wt"`
	HierWT    float64 `json:"hier_wt"`
	// SimFrac is hier / mono simulated weighted throughput.
	SimFrac float64 `json:"sim_frac"`
}

// HierResult is the complete E13 outcome.
type HierResult struct {
	DeadlineMS float64        `json:"deadline_ms"`
	Scales     []HierScaleRow `json:"scales"`
	Grad       GradScaleRow   `json:"grad"`
	Sim        HierSimRow     `json:"sim"`
	// OK is the acceptance verdict: every ladder point has the
	// hierarchical solve within its deadline at ≥ 95% of the monolithic
	// weighted throughput where the monolithic solve converged (≥ 90%
	// where even its 4× budget truncated it), the analytic gradient
	// engine lands within 1% of the finite-difference reference in ≥ 10×
	// less wall time, and the simulated deployment under hierarchical
	// targets reaches ≥ 95% of the monolithic-retargeted run.
	OK bool `json:"ok"`
}

// hierFracBar is the per-scale quality gate: 95% of the monolithic
// solve where that solve converged (a real oracle), 90% where even 4×
// the epoch budget truncated it (a competitor the hierarchy must stay
// close to while actually fitting the epoch).
func hierFracBar(r HierScaleRow) float64 {
	if r.MonoConverged {
		return 0.95
	}
	return 0.90
}

// hierRegionCount keeps regions near RegionPEs PEs each, never fewer
// than two (one region would just be the monolithic solve with relay
// overhead).
func hierRegionCount(pes, regionPEs int) int {
	r := pes / regionPEs
	if r < 2 {
		r = 2
	}
	return r
}

// uniformCPU is the naive deployment allocation the validation runs
// start from: every node's capacity split evenly across its PEs.
func uniformCPU(t *graph.Topology) []float64 {
	perNode := make([]int, t.NumNodes)
	for _, pe := range t.PEs {
		perNode[pe.Node]++
	}
	cpu := make([]float64, t.NumPEs())
	for j, pe := range t.PEs {
		cpu[j] = 1.0 / float64(perNode[pe.Node])
	}
	return cpu
}

// hierSolverConfig is the shared per-region base configuration.
func hierSolverConfig(o HierOptions) optimize.Config {
	return optimize.Config{
		MaxIters: o.RegionIters,
		Utility:  optimize.LinearUtility{},
		MinShare: 0.02,
	}
}

// RunHier executes E13: the solve-time/quality ladder plus the simulator
// validation.
func RunHier(o HierOptions) (HierResult, error) {
	o.fillDefaults()
	res := HierResult{DeadlineMS: float64(o.Deadline) / float64(time.Millisecond)}
	for _, pes := range o.Scales {
		nodes := pes / o.PEsPerNode
		topo, err := graph.Generate(graph.DefaultGenConfig(pes, nodes, o.Seed))
		if err != nil {
			return res, fmt.Errorf("hier scale %d: %w", pes, err)
		}
		mono, err := optimize.Solve(topo, optimize.Config{
			MaxIters: o.MonoIters,
			Utility:  optimize.LinearUtility{},
			MinShare: 0.02,
			// 4× the epoch budget: generous enough to be an honest quality
			// bar at the scales where the monolithic solver converges,
			// bounded enough that the ladder completes at the scales where
			// it never would.
			Deadline: 4 * o.Deadline,
		})
		if err != nil {
			return res, fmt.Errorf("hier scale %d: monolithic solve: %w", pes, err)
		}
		regions := hierRegionCount(pes, o.RegionPEs)
		dec, err := hier.Partition(topo, hier.PartitionConfig{Regions: regions})
		if err != nil {
			return res, fmt.Errorf("hier scale %d: partition: %w", pes, err)
		}
		ha, err := hier.Solve(topo, dec, hier.Config{
			Optimize: hierSolverConfig(o),
			Sweeps:   o.Sweeps,
			Deadline: o.Deadline,
		})
		if err != nil {
			return res, fmt.Errorf("hier scale %d: hierarchical solve: %w", pes, err)
		}
		row := HierScaleRow{
			PEs: pes, Nodes: nodes, Regions: len(dec.Regions),
			CutFrac:    dec.CutFraction(),
			MonoMillis: mono.SolveMillis, MonoIters: mono.Iterations,
			MonoWT:        mono.WeightedThroughput,
			MonoBlown:     mono.SolveMillis > res.DeadlineMS,
			MonoConverged: !mono.DeadlineExceeded,
			HierMillis:    ha.SolveMillis, HierSweeps: ha.Sweeps,
			HierConverged: ha.Converged, HierBlown: ha.DeadlineExceeded,
			HierWT: ha.WeightedThroughput,
		}
		if row.MonoWT > 0 {
			row.HierFrac = row.HierWT / row.MonoWT
		}
		res.Scales = append(res.Scales, row)
	}

	grad, err := runGradRow(o)
	if err != nil {
		return res, err
	}
	res.Grad = grad

	sim, err := runHierSim(o)
	if err != nil {
		return res, err
	}
	res.Sim = sim

	res.OK = true
	for _, r := range res.Scales {
		if r.HierFrac < hierFracBar(r) || r.HierBlown {
			res.OK = false
		}
	}
	if res.Grad.Frac < 0.99 || res.Grad.Speedup < 10 {
		res.OK = false
	}
	if res.Sim.SimFrac < 0.95 {
		res.OK = false
	}
	return res, nil
}

// runGradRow solves the GradPEs-scale topology with both gradient engines
// under the same iteration budget and MinShare/utility configuration —
// the acceptance measurement behind Config.Gradient's analytic default.
func runGradRow(o HierOptions) (GradScaleRow, error) {
	pes := o.GradPEs
	nodes := pes / o.PEsPerNode
	if nodes < 1 {
		nodes = 1
	}
	row := GradScaleRow{PEs: pes}
	topo, err := graph.Generate(graph.DefaultGenConfig(pes, nodes, o.Seed))
	if err != nil {
		return row, fmt.Errorf("grad row: %w", err)
	}
	base := optimize.Config{
		MaxIters: o.GradIters,
		Utility:  optimize.LinearUtility{},
		MinShare: 0.02,
	}
	an, err := optimize.Solve(topo, base)
	if err != nil {
		return row, fmt.Errorf("grad row: analytic solve: %w", err)
	}
	fdCfg := base
	fdCfg.Gradient = optimize.GradientFiniteDiff
	fdCfg.Deadline = o.GradFDDeadline
	fd, err := optimize.Solve(topo, fdCfg)
	if err != nil {
		return row, fmt.Errorf("grad row: finite-difference solve: %w", err)
	}
	row.AnMillis, row.AnEvals, row.AnWT = an.SolveMillis, an.Evals, an.WeightedThroughput
	row.FDMillis, row.FDEvals, row.FDWT = fd.SolveMillis, fd.Evals, fd.WeightedThroughput
	if row.AnMillis > 0 {
		row.Speedup = row.FDMillis / row.AnMillis
	}
	if row.FDWT > 0 {
		row.Frac = row.AnWT / row.FDWT
	}
	return row, nil
}

// runHierSim drives the largest deployment in the calibrated simulator
// three times from the same naive uniform allocation: frozen, with a
// deadline-bounded monolithic re-solve every SimEvery simulated seconds,
// and with the hierarchical re-solve on the same schedule. Both solvers
// warm-start from the incumbent epoch, exactly like the live adaptive
// loop.
func runHierSim(o HierOptions) (HierSimRow, error) {
	pes := o.SimPEs
	nodes := pes / o.PEsPerNode
	row := HierSimRow{PEs: pes, Nodes: nodes}
	topo, err := graph.Generate(graph.DefaultGenConfig(pes, nodes, o.Seed))
	if err != nil {
		return row, fmt.Errorf("hier sim: %w", err)
	}
	regions := hierRegionCount(pes, o.RegionPEs)
	dec, err := hier.Partition(topo, hier.PartitionConfig{Regions: regions})
	if err != nil {
		return row, fmt.Errorf("hier sim: partition: %w", err)
	}

	run := func(solve func(cpu []float64) []float64) (float64, int, error) {
		eng, err := streamsim.New(streamsim.Config{
			Topo: topo, Policy: policy.ACES, CPU: uniformCPU(topo),
			Duration: o.SimDuration, Seed: o.Seed + 100,
		})
		if err != nil {
			return 0, 0, err
		}
		if solve != nil {
			if _, err := eng.StartRetarget(o.SimEvery, func(_ int, cpu []float64) []float64 {
				return solve(cpu)
			}); err != nil {
				return 0, 0, err
			}
		}
		rep := eng.Run()
		return rep.WeightedThroughput, eng.Retargets(), nil
	}

	uniform, _, err := run(nil)
	if err != nil {
		return row, fmt.Errorf("hier sim: uniform run: %w", err)
	}
	mono, monoEpochs, err := run(func(cpu []float64) []float64 {
		alloc, err := optimize.Solve(topo, optimize.Config{
			MaxIters: o.MonoIters,
			Utility:  optimize.LinearUtility{},
			MinShare: 0.02,
			// The live loop's epoch budget binds here: at scale the
			// truncation is exactly the quality the monolithic path pays.
			Deadline:  o.Deadline,
			WarmStart: cpu,
		})
		if err != nil {
			return nil
		}
		return alloc.CPU
	})
	if err != nil {
		return row, fmt.Errorf("hier sim: monolithic run: %w", err)
	}
	hierWT, hierEpochs, err := run(func(cpu []float64) []float64 {
		oc := hierSolverConfig(o)
		oc.WarmStart = cpu
		ha, err := hier.Solve(topo, dec, hier.Config{
			Optimize: oc,
			Sweeps:   o.Sweeps,
			Deadline: o.Deadline,
		})
		if err != nil {
			return nil
		}
		return ha.CPU
	})
	if err != nil {
		return row, fmt.Errorf("hier sim: hierarchical run: %w", err)
	}

	row.UniformWT = uniform
	row.MonoWT = mono
	row.HierWT = hierWT
	row.Epochs = monoEpochs
	if hierEpochs < monoEpochs {
		row.Epochs = hierEpochs
	}
	if row.MonoWT > 0 {
		row.SimFrac = row.HierWT / row.MonoWT
	}
	return row, nil
}

// FormatHier renders E13.
func FormatHier(w io.Writer, res HierResult) {
	rows := make([][]string, 0, len(res.Scales))
	for _, r := range res.Scales {
		monoMS := fmt.Sprintf("%.0f", r.MonoMillis)
		if r.MonoBlown {
			monoMS += " BLOWN"
		}
		if !r.MonoConverged {
			monoMS += " TRUNC"
		}
		hierMS := fmt.Sprintf("%.0f", r.HierMillis)
		if r.HierBlown {
			hierMS += " BLOWN"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.PEs),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Regions),
			fmt.Sprintf("%.0f%%", 100*r.CutFrac),
			monoMS,
			hierMS,
			fmt.Sprintf("%d", r.HierSweeps),
			fmt.Sprintf("%.0f", r.MonoWT),
			fmt.Sprintf("%.0f", r.HierWT),
			fmt.Sprintf("%.1f%%", 100*r.HierFrac),
			fmt.Sprintf("%.0f%%", 100*hierFracBar(r)),
		})
	}
	Table(w, fmt.Sprintf("E13 — hierarchical control plane: regional solves + priced cuts vs monolithic (deadline %.0f ms)", res.DeadlineMS),
		[]string{"pes", "nodes", "regions", "cut", "mono ms", "hier ms", "sweeps", "mono wt", "hier wt", "hier/mono", "bar"}, rows)
	g := res.Grad
	if g.PEs > 0 {
		fmt.Fprintf(w, "  grad engine @ %d PEs: analytic %.0f ms / %d evals (wt %.0f) vs finite-diff %.0f ms / %d evals (wt %.0f) — %.0f× faster at %.2f%% of the reference\n",
			g.PEs, g.AnMillis, g.AnEvals, g.AnWT, g.FDMillis, g.FDEvals, g.FDWT, g.Speedup, 100*g.Frac)
	}
	s := res.Sim
	fmt.Fprintf(w, "  sim %d PEs / %d nodes, %d retarget epochs: uniform %.0f → mono %.0f, hier %.0f w/s (hier/mono %.1f%%)\n",
		s.PEs, s.Nodes, s.Epochs, s.UniformWT, s.MonoWT, s.HierWT, 100*s.SimFrac)
	verdict := "OK"
	if !res.OK {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "  verdict: %s (gate: hier within deadline and ≥ bar at every scale — 95%% vs a converged mono, 90%% vs a 4×-budget truncated one — grad ≥ 99%% at ≥ 10×, and sim ≥ 95%%)\n\n", verdict)
}
