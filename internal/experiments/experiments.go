// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) — the per-experiment index lives in DESIGN.md:
//
//	E1 Fig. 3  latency mean ± σ, ACES vs Lock-Step, over buffer sizes
//	E2 Fig. 4  latency-versus-weighted-throughput frontier (parametric in B)
//	E3 Fig. 5  weighted throughput vs burstiness λ_S, three systems,
//	           plus the SPC↔simulator calibration points
//	E4 §I/§VI  small-buffer advantage (> 20% claim)
//	E5 §VII    robustness to tier-1 allocation errors
//	E6 §V-C    closed-loop stability (settling, steady error, oscillation)
//	E7 Fig. 2  max-flow vs min-flow on the fan-out example
//	E8 §VI-C   simulator-versus-live-runtime calibration
//	E13 §V-B   hierarchical vs monolithic tier-1 solves, 500 → 10,000 PEs
//
// Each experiment returns typed rows; Format* helpers render the tables
// cmd/aces-bench prints and EXPERIMENTS.md records. The live-runtime
// acceptance drills — E10 chaos, E11 retarget, E12 elastic, E14
// failover — run as tests (Test*Recovers) and log their rows there.
package experiments

import (
	"encoding/json"
	"fmt"

	"aces/internal/graph"
	"aces/internal/metrics"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/stats"
	"aces/internal/streamsim"
	"aces/internal/workload"
)

// Options scales the experiment suite. Default() reproduces the paper's
// setup; Quick() shrinks everything for tests and benchmarks.
type Options struct {
	// PEs and Nodes set the main topology scale (paper: 200 PEs, 80
	// nodes).
	PEs, Nodes int
	// CalPEs and CalNodes set the calibration scale (paper: 60 PEs, 10
	// nodes).
	CalPEs, CalNodes int
	// Duration is the per-run simulated horizon in seconds.
	Duration float64
	// Seeds lists the topology/workload seeds averaged over ("multiple
	// randomly generated topologies were used … results averaged").
	Seeds []int64
	// TimeScale accelerates the live runtime in E3/E8.
	TimeScale float64
	// OptimizerIters bounds tier-1 solver iterations.
	OptimizerIters int
	// LiveDuration is the live-runtime horizon (virtual seconds).
	LiveDuration float64
}

// Default returns the paper-scale configuration.
func Default() Options {
	return Options{
		PEs: 200, Nodes: 80,
		CalPEs: 60, CalNodes: 10,
		Duration:       40,
		Seeds:          []int64{1, 2, 3},
		TimeScale:      10,
		OptimizerIters: 2500,
		LiveDuration:   16,
	}
}

// Quick returns a fast configuration for tests and Go benchmarks.
func Quick() Options {
	return Options{
		PEs: 60, Nodes: 10,
		CalPEs: 30, CalNodes: 5,
		Duration: 10,
		Seeds:    []int64{1},
		// Gentle enough that the live runtime keeps pace even under the
		// race detector's ~10× slowdown in CI.
		TimeScale:      5,
		OptimizerIters: 400,
		LiveDuration:   8,
	}
}

// cloneTopo deep-copies a topology (JSON round trip).
func cloneTopo(t *graph.Topology) (*graph.Topology, error) {
	data, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	var out graph.Topology
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	if err := out.Rebuild(); err != nil {
		return nil, err
	}
	return &out, nil
}

// buildCase generates a topology for a seed and solves tier 1 on it.
func buildCase(o Options, pes, nodes int, seed int64) (*graph.Topology, []float64, error) {
	topo, err := graph.Generate(graph.DefaultGenConfig(pes, nodes, seed))
	if err != nil {
		return nil, nil, err
	}
	alloc, err := optimize.Solve(topo, optimize.Config{
		MaxIters: o.OptimizerIters,
		// The paper's objective is the weighted throughput itself; linear
		// utility deliberately creates the unequal branch rates §III-D
		// predicts. The floor keeps every deployed PE runnable.
		Utility:  optimize.LinearUtility{},
		MinShare: 0.02,
	})
	if err != nil {
		return nil, nil, err
	}
	return topo, alloc.CPU, nil
}

// runOne executes one simulator run.
func runOne(o Options, topo *graph.Topology, pol policy.Policy, cpu []float64, seed int64) (metrics.Report, error) {
	eng, err := streamsim.New(streamsim.Config{
		Topo: topo, Policy: pol, CPU: cpu,
		Duration: o.Duration, Seed: seed,
	})
	if err != nil {
		return metrics.Report{}, err
	}
	return eng.Run(), nil
}

// PolicyStat aggregates one policy's results across seeds.
type PolicyStat struct {
	WT, WTErr   float64 // mean weighted throughput ± 95% CI
	Lat, LatStd float64 // mean latency and mean per-run latency σ (seconds)
	P95         float64
	InFlight    float64 // mean in-flight drops per run
	BufOcc      float64 // mean buffer occupancy
}

// aggregate folds per-seed reports into a PolicyStat.
func aggregate(reports []metrics.Report) PolicyStat {
	var wt, lat, latStd, p95, fly, occ stats.Welford
	for _, r := range reports {
		wt.Add(r.WeightedThroughput)
		lat.Add(r.MeanLatency)
		latStd.Add(r.StdLatency)
		p95.Add(r.P95)
		fly.Add(float64(r.InFlightDrops))
		occ.Add(r.MeanBufferOccupancy)
	}
	return PolicyStat{
		WT: wt.Mean(), WTErr: wt.CI95(),
		Lat: lat.Mean(), LatStd: latStd.Mean(),
		P95:      p95.Mean(),
		InFlight: fly.Mean(),
		BufOcc:   occ.Mean(),
	}
}

// sweepPolicies runs the given policies over all seeds for one topology
// transformation.
func sweepPolicies(o Options, pols []policy.Policy, transform func(*graph.Topology) error) (map[policy.Policy]PolicyStat, error) {
	reports := make(map[policy.Policy][]metrics.Report)
	for _, seed := range o.Seeds {
		topo, cpu, err := buildCase(o, o.PEs, o.Nodes, seed)
		if err != nil {
			return nil, err
		}
		if transform != nil {
			if err := transform(topo); err != nil {
				return nil, err
			}
			// Re-solve tier 1 after structural changes so allocations match
			// the transformed deployment.
			alloc, err := optimize.Solve(topo, optimize.Config{MaxIters: o.OptimizerIters, Utility: optimize.LinearUtility{}, MinShare: 0.02})
			if err != nil {
				return nil, err
			}
			cpu = alloc.CPU
		}
		for _, pol := range pols {
			r, err := runOne(o, topo, pol, cpu, seed+100)
			if err != nil {
				return nil, err
			}
			reports[pol] = append(reports[pol], r)
		}
	}
	out := make(map[policy.Policy]PolicyStat, len(reports))
	for pol, rs := range reports {
		out[pol] = aggregate(rs)
	}
	return out, nil
}

// BufferRow is one buffer-size point of the Fig. 3 / Fig. 4 sweep.
type BufferRow struct {
	B    int
	Stat map[policy.Policy]PolicyStat
}

// BufferSweep runs ACES and Lock-Step across buffer sizes: the underlying
// data of both Fig. 3 (latency mean ± σ) and Fig. 4 (latency vs weighted
// throughput, parametric in B).
func BufferSweep(o Options, sizes []int) ([]BufferRow, error) {
	if len(sizes) == 0 {
		sizes = []int{10, 25, 50, 100, 200}
	}
	rows := make([]BufferRow, 0, len(sizes))
	for _, b := range sizes {
		b := b
		stat, err := sweepPolicies(o, []policy.Policy{policy.ACES, policy.LockStep}, func(t *graph.Topology) error {
			t.DefaultBufferSize = b
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BufferRow{B: b, Stat: stat})
	}
	return rows, nil
}

// BurstinessRow is one λ_S point of Fig. 5.
type BurstinessRow struct {
	LambdaS float64
	Stat    map[policy.Policy]PolicyStat
}

// BurstinessSweep varies the state-dwell scale λ_S ("the burstiness was
// varied by varying the mean time the PEs spend in each of the two
// states") and measures the three systems.
func BurstinessSweep(o Options, lambdas []float64) ([]BurstinessRow, error) {
	if len(lambdas) == 0 {
		lambdas = []float64{1, 2, 5, 10, 20, 50}
	}
	rows := make([]BurstinessRow, 0, len(lambdas))
	for _, ls := range lambdas {
		ls := ls
		stat, err := sweepPolicies(o, policy.All(), func(t *graph.Topology) error {
			for i := range t.PEs {
				t.PEs[i].Service.LambdaS = ls
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BurstinessRow{LambdaS: ls, Stat: stat})
	}
	return rows, nil
}

// SmallBufferRow is one point of the small-buffer advantage table (E4).
type SmallBufferRow struct {
	B            int
	Stat         map[policy.Policy]PolicyStat
	AdvantagePct float64 // ACES weighted throughput vs best baseline, in %
}

// SmallBufferAdvantage quantifies the paper's "> 20% in the limit of small
// buffers" claim.
func SmallBufferAdvantage(o Options, sizes []int) ([]SmallBufferRow, error) {
	if len(sizes) == 0 {
		sizes = []int{3, 5, 8, 12, 25}
	}
	out := make([]SmallBufferRow, 0, len(sizes))
	for _, b := range sizes {
		b := b
		stat, err := sweepPolicies(o, policy.All(), func(t *graph.Topology) error {
			t.DefaultBufferSize = b
			return nil
		})
		if err != nil {
			return nil, err
		}
		best := stat[policy.UDP].WT
		if stat[policy.LockStep].WT > best {
			best = stat[policy.LockStep].WT
		}
		adv := 0.0
		if best > 0 {
			adv = 100 * (stat[policy.ACES].WT - best) / best
		}
		out = append(out, SmallBufferRow{B: b, Stat: stat, AdvantagePct: adv})
	}
	return out, nil
}

// RobustnessRow is one allocation-error level (E5).
type RobustnessRow struct {
	Eps  float64
	Stat map[policy.Policy]PolicyStat
}

// Robustness perturbs the tier-1 CPU targets by ±eps and measures the
// resulting weighted throughput (§VII: "the robustness of ACES to errors
// in allocation was also demonstrated").
func Robustness(o Options, epss []float64) ([]RobustnessRow, error) {
	if len(epss) == 0 {
		epss = []float64{0, 0.1, 0.2, 0.3, 0.5}
	}
	out := make([]RobustnessRow, 0, len(epss))
	for _, eps := range epss {
		reports := make(map[policy.Policy][]metrics.Report)
		for _, seed := range o.Seeds {
			topo, cpu, err := buildCase(o, o.PEs, o.Nodes, seed)
			if err != nil {
				return nil, err
			}
			pcpu := cpu
			if eps > 0 {
				pcpu = optimize.Perturb(topo, cpu, eps, simRandFor(seed, eps))
			}
			for _, pol := range policy.All() {
				r, err := runOne(o, topo, pol, pcpu, seed+200)
				if err != nil {
					return nil, err
				}
				reports[pol] = append(reports[pol], r)
			}
		}
		stat := make(map[policy.Policy]PolicyStat)
		for pol, rs := range reports {
			stat[pol] = aggregate(rs)
		}
		out = append(out, RobustnessRow{Eps: eps, Stat: stat})
	}
	return out, nil
}

// FanoutResult is the Fig. 2 experiment outcome for one policy (E7).
type FanoutResult struct {
	Policy      policy.Policy
	BranchRates []float64 // deliveries/sec per consumer, in PE order
	TotalWT     float64
}

// Fanout reproduces the paper's Fig. 2: one producer feeding four
// consumers capable of 10, 20, 20 and 30 SDOs/sec. Max-flow keeps the fast
// consumer at full rate; min-flow drags every branch to the slowest.
func Fanout(o Options) ([]FanoutResult, error) {
	build := func() (*graph.Topology, []float64, []sdo.PEID, error) {
		topo := graph.New(5, 50)
		det := func(cost float64) workload.ServiceParams {
			return workload.ServiceParams{T0: cost, T1: cost, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
		}
		producer := topo.AddPE(graph.PE{Name: "pe1", Service: det(0.002), Node: 0})
		rates := []float64{10, 20, 20, 30}
		branches := make([]sdo.PEID, len(rates))
		cpu := []float64{0.2}
		for i, r := range rates {
			// Each consumer on its own node with c̄ = 0.5 and a per-SDO
			// cost yielding exactly the Fig. 2 rate: cost = 0.5/r.
			id := topo.AddPE(graph.PE{
				Name:    fmt.Sprintf("pe%d", i+2),
				Service: det(0.5 / r),
				Node:    sdo.NodeID(i + 1),
				Weight:  1,
			})
			branches[i] = id
			cpu = append(cpu, 0.5)
			if err := topo.Connect(producer, id); err != nil {
				return nil, nil, nil, err
			}
		}
		if err := topo.AddSource(graph.Source{
			Stream: 1, Target: producer, Rate: 30,
			Burst: graph.BurstSpec{Kind: graph.BurstDeterministic},
		}); err != nil {
			return nil, nil, nil, err
		}
		return topo, cpu, branches, nil
	}
	var out []FanoutResult
	for _, pol := range policy.All() {
		topo, cpu, branches, err := build()
		if err != nil {
			return nil, err
		}
		eng, err := streamsim.New(streamsim.Config{
			Topo: topo, Policy: pol, CPU: cpu,
			Duration: o.Duration, Seed: 7,
		})
		if err != nil {
			return nil, err
		}
		rep := eng.Run()
		counts := eng.DeliveredByPE()
		horizon := o.Duration - o.Duration/5
		res := FanoutResult{Policy: pol, TotalWT: rep.WeightedThroughput}
		for _, b := range branches {
			res.BranchRates = append(res.BranchRates, float64(counts[b])/horizon)
		}
		out = append(out, res)
	}
	return out, nil
}

// CalibrationRow pairs simulator and live-runtime measurements (E8, and
// the calibration points shown in Fig. 5).
type CalibrationRow struct {
	Policy policy.Policy
	SimWT  float64
	LiveWT float64
	// RatioPct is 100·Live/Sim — the calibration quality indicator.
	RatioPct float64
}

// Calibration runs the same 60-PE/10-node deployment on both substrates.
func Calibration(o Options) ([]CalibrationRow, error) {
	topo, cpu, err := buildCase(o, o.CalPEs, o.CalNodes, o.Seeds[0])
	if err != nil {
		return nil, err
	}
	var out []CalibrationRow
	for _, pol := range policy.All() {
		simRep, err := runOne(o, topo, pol, cpu, 77)
		if err != nil {
			return nil, err
		}
		liveTopo, err := cloneTopo(topo)
		if err != nil {
			return nil, err
		}
		cl, err := spc.NewCluster(spc.Config{
			Topo: liveTopo, Policy: pol, CPU: cpu,
			TimeScale: o.TimeScale, Warmup: o.LiveDuration / 4, Seed: 77,
		})
		if err != nil {
			return nil, err
		}
		liveRep, err := cl.Run(o.LiveDuration)
		if err != nil {
			return nil, err
		}
		row := CalibrationRow{Policy: pol, SimWT: simRep.WeightedThroughput, LiveWT: liveRep.WeightedThroughput}
		if row.SimWT > 0 {
			row.RatioPct = 100 * row.LiveWT / row.SimWT
		}
		out = append(out, row)
	}
	return out, nil
}

// StabilityResult summarizes the closed-loop convergence experiment (E6).
type StabilityResult struct {
	// SettleTime is when the monitored buffer first stays within ±20% of
	// b₀ for 50 consecutive ticks, in seconds (−1 if never).
	SettleTime float64
	// SteadyMean and SteadyStd describe the buffer after settling.
	SteadyMean, SteadyStd float64
	// B0 is the target.
	B0 float64
	// ThroughputCV is the oscillation indicator of the whole run.
	ThroughputCV float64
}

// Stability drives a two-stage chain with the downstream stage slower,
// so its buffer is controller-regulated, and traces convergence to b₀
// from an empty start (§V-C's asymptotic-convergence property).
func Stability(o Options) (StabilityResult, error) {
	topo := graph.New(2, 50)
	det := func(cost float64) workload.ServiceParams {
		return workload.ServiceParams{T0: cost, T1: cost, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
	}
	a := topo.AddPE(graph.PE{Service: det(0.002), Node: 0})
	b := topo.AddPE(graph.PE{Service: det(0.005), Node: 1, Weight: 1})
	if err := topo.Connect(a, b); err != nil {
		return StabilityResult{}, err
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: a, Rate: 300, Burst: graph.BurstSpec{Kind: graph.BurstPoisson}}); err != nil {
		return StabilityResult{}, err
	}
	eng, err := streamsim.New(streamsim.Config{
		Topo: topo, Policy: policy.ACES, CPU: []float64{0.8, 0.8},
		Duration: o.Duration, Seed: 5,
	})
	if err != nil {
		return StabilityResult{}, err
	}
	const b0 = 25.0
	res := StabilityResult{B0: b0, SettleTime: -1}
	within := 0
	var steady stats.Welford
	settled := false
	eng.Sim().Every(0.01, func(now float64) {
		occ := float64(eng.BufferLen(1))
		if !settled {
			if occ >= b0*0.8 && occ <= b0*1.2 {
				within++
				if within >= 50 {
					settled = true
					res.SettleTime = now
				}
			} else {
				within = 0
			}
			return
		}
		steady.Add(occ)
	})
	rep := eng.Run()
	res.SteadyMean = steady.Mean()
	res.SteadyStd = steady.Std()
	res.ThroughputCV = rep.ThroughputCV
	return res, nil
}

// AblationRow compares the full ACES design against its ablated variants.
type AblationRow struct {
	Policy policy.Policy
	Stat   PolicyStat
}

// Ablations measures max-flow vs min-flow and token-bucket vs strict CPU
// enforcement on the paper-scale topology — the design choices DESIGN.md
// calls out.
func Ablations(o Options) ([]AblationRow, error) {
	pols := []policy.Policy{policy.ACES, policy.ACESMinFlow, policy.ACESStrictCPU}
	stat, err := sweepPolicies(o, pols, nil)
	if err != nil {
		return nil, err
	}
	out := make([]AblationRow, 0, len(pols))
	for _, p := range pols {
		out = append(out, AblationRow{Policy: p, Stat: stat[p]})
	}
	return out, nil
}
