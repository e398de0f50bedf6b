package experiments

import (
	"aces/internal/graph"
	"aces/internal/optimize"
	"aces/internal/sdo"
	"aces/internal/spc"
)

// RetargetOptions scales E11, the adaptive-loop experiment: a partitioned
// 3-node deployment suffers a seeded step change in one PE's per-SDO cost
// that the deployed topology never learns about, and three otherwise
// identical runs are compared — tier-1 targets frozen at deployment, the
// online calibrate→re-solve→retarget loop, and an oracle that applies the
// true-cost re-solve the instant the step lands. The zero value picks
// defaults.
type RetargetOptions struct {
	// Seed drives workloads and sources.
	Seed int64
	// TimeScale is the virtual-over-wall speedup (default 10; 3 under the
	// race detector).
	TimeScale float64
	// StepAt is when the cost step lands, virtual seconds (default 6;
	// must exceed the warmup of 1).
	StepAt float64
	// Post is the observation horizon after the step (default 14 — the
	// adaptive loop needs several calibration windows to converge).
	Post float64
	// Window is the throughput-measurement window (default 2).
	Window float64
	// Every is the adaptive loop's re-solve period (default 0.5).
	Every float64
	// StepFactor multiplies the stepped PE's cost (default 4).
	StepFactor float64
}

func (o *RetargetOptions) fillDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TimeScale <= 0 {
		o.TimeScale = drillTimeScale()
	}
	if o.StepAt <= 1 {
		o.StepAt = 6
	}
	if o.Post <= 0 {
		o.Post = 14
	}
	if o.Window <= 0 {
		o.Window = 2
	}
	if o.Every <= 0 {
		o.Every = 0.5
	}
	if o.StepFactor <= 1 {
		o.StepFactor = 4
	}
}

// RetargetRow is one E11 outcome. Rates are weighted egress deliveries
// per virtual second (Σ w_j · rate_j) over the final measurement window.
type RetargetRow struct {
	Seed   int64   `json:"seed"`
	StepAt float64 `json:"step_at"`
	// PreRate is the healthy weighted rate over the window ending at the
	// step (from the frozen run — all three are statistically identical
	// before the step).
	PreRate float64 `json:"pre_rate"`
	// FrozenRate, AdaptiveRate and OracleRate are the final-window
	// weighted rates of the three runs.
	FrozenRate   float64 `json:"frozen_rate"`
	AdaptiveRate float64 `json:"adaptive_rate"`
	OracleRate   float64 `json:"oracle_rate"`
	// AdaptiveFrac and FrozenFrac normalize by the oracle.
	AdaptiveFrac float64 `json:"adaptive_frac"`
	FrozenFrac   float64 `json:"frozen_frac"`
	// Epochs is how many target epochs the adaptive coordinator emitted;
	// PeerEpoch is the epoch its peer process reached via dissemination
	// (≥ 1 proves targets crossed the wire).
	Epochs    uint64 `json:"epochs"`
	PeerEpoch uint64 `json:"peer_epoch"`
	// Recovered is the verdict: the adaptive loop reaches ≥ 90% of the
	// oracle's weighted throughput, the frozen run stays below it, and
	// dissemination reached the peer.
	Recovered bool `json:"recovered"`
}

// retargetTopo is the E11 deployment. Process A hosts nodes {0, 1},
// process B node {2}; one resilient uplink pair crosses the boundary.
//
//	node 0: PE0 ingest (1 ms) → PE3          source S0: 100/s
//	node 1: PE1 egress, weight 8 (2 ms)      source S1: 100/s  ← cost steps
//	        PE2 egress, weight 1 (2 ms)      source S2: 1000/s
//	node 2: PE3 egress, weight 1 (2 ms, fed by PE0 over the uplink)
//
// Node 1 is where tier 1's allocation binds: pre-step the optimum serves
// PE1's full demand on 0.2 CPU and gives PE2 the rest; after PE1's cost
// quadruples it needs 0.8 CPU for the same demand, and with weight 8 the
// re-solve must hand it over. Frozen targets strand PE1 at a quarter of
// its demand while PE2 wastes cheap cycles on weight-1 traffic.
func retargetTopo() (*graph.Topology, error) {
	topo := graph.New(3, 50)
	p0 := topo.AddPE(graph.PE{Service: detService(0.001), Node: 0})
	p1 := topo.AddPE(graph.PE{Service: detService(0.002), Node: 1, Weight: 8})
	p2 := topo.AddPE(graph.PE{Service: detService(0.002), Node: 1, Weight: 1})
	p3 := topo.AddPE(graph.PE{Service: detService(0.002), Node: 2, Weight: 1})
	if err := topo.Connect(p0, p3); err != nil {
		return nil, err
	}
	for _, s := range []graph.Source{
		{Stream: 1, Target: p0, Rate: 100, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}},
		{Stream: 2, Target: p1, Rate: 100, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}},
		{Stream: 3, Target: p2, Rate: 1000, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}},
	} {
		if err := topo.AddSource(s); err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// RunRetarget executes E11 once: deploy the partitioned topology with
// tier-1 targets solved from the *declared* models, land the cost step,
// and measure the final-window weighted throughput under frozen targets,
// under the online adaptive loop, and under an oracle retarget. The
// verdict demands the adaptive loop recover ≥ 90% of the oracle while the
// frozen run stays degraded — i.e. the gap is real and the loop closes it.
func RunRetarget(o RetargetOptions) (RetargetRow, error) {
	o.fillDefaults()
	topo, err := retargetTopo()
	if err != nil {
		return RetargetRow{}, err
	}
	deployed, err := optimize.Solve(topo, optimize.Config{})
	if err != nil {
		return RetargetRow{}, err
	}
	// The oracle re-solve knows the true post-step cost — the upper bound
	// the online loop is judged against.
	oracle, err := optimize.Solve(withCost(topo, 1, o.StepFactor), optimize.Config{WarmStart: deployed.CPU})
	if err != nil {
		return RetargetRow{}, err
	}

	stepped := topo.PEs[1].Service.EffectiveCost()
	horizon := o.StepAt + o.Post
	d := splitDrill{
		topo: topo, cpu: deployed.CPU, seed: o.Seed,
		timeScale: o.TimeScale, every: o.Every, stepAt: o.StepAt, horizon: horizon,
		proc: func(j sdo.PEID, _ int32) spc.Processor {
			if j != 1 {
				return nil
			}
			return spc.NewStepCost(201, stepped, o.StepFactor*stepped, o.StepAt)
		},
	}
	row := RetargetRow{Seed: o.Seed, StepAt: o.StepAt}
	frozen, adaptive, orc, err := d.runAll(column(oracle.CPU))
	if err != nil {
		return row, err
	}
	row.PreRate = frozen.series.rate(o.StepAt-o.Window, o.StepAt)
	row.FrozenRate = frozen.series.rate(horizon-o.Window, horizon)
	row.AdaptiveRate = adaptive.series.rate(horizon-o.Window, horizon)
	row.OracleRate = orc.series.rate(horizon-o.Window, horizon)
	row.Epochs = adaptive.epochA
	row.PeerEpoch = adaptive.epochB
	if row.OracleRate > 0 {
		row.AdaptiveFrac = row.AdaptiveRate / row.OracleRate
		row.FrozenFrac = row.FrozenRate / row.OracleRate
	}
	row.Recovered = row.AdaptiveFrac >= 0.90 && row.FrozenFrac < 0.90 && row.PeerEpoch >= 1
	return row, nil
}
