package experiments

import (
	"sort"
	"sync"
	"time"

	"aces/internal/graph"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/transport"
	"aces/internal/workload"
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
	// TimeScale is the virtual-over-wall speedup (default 10).
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
		o.TimeScale = 10
		if raceEnabled {
			// The race detector slows the process severalfold; at 10×
			// the schedulers slip enough to starve the adaptive run's
			// calibration. Trade wall time back for fidelity.
			o.TimeScale = 3
		}
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

// retargetService is a deterministic service profile: E11's drift is the
// seeded cost step, not workload state-switching.
func retargetService(cost float64) workload.ServiceParams {
	return workload.ServiceParams{T0: cost, T1: cost, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
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
	p0 := topo.AddPE(graph.PE{Service: retargetService(0.001), Node: 0})
	p1 := topo.AddPE(graph.PE{Service: retargetService(0.002), Node: 1, Weight: 8})
	p2 := topo.AddPE(graph.PE{Service: retargetService(0.002), Node: 1, Weight: 1})
	p3 := topo.AddPE(graph.PE{Service: retargetService(0.002), Node: 2, Weight: 1})
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

// retargetMode selects what closes (or doesn't close) the adaptive loop
// in one E11 run.
type retargetMode int

const (
	modeFrozen retargetMode = iota
	modeAdaptive
	modeOracle
)

// retargetRun executes one partitioned run and returns the weighted
// egress rate series sampler plus the end-of-run epochs of both
// processes.
func retargetRun(o RetargetOptions, topo *graph.Topology, cpu []float64, mode retargetMode, oracleCPU []float64) (rate func(t0, t1 float64) float64, epochA, epochB uint64, err error) {
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	defer lis.Close()
	linkOpts := transport.ResilientOptions{
		QueueSize:    256,
		WriteTimeout: 50 * time.Millisecond,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		BatchMax:     32,
	}
	linkA := spc.NewResilientLink(func() (*transport.Conn, error) {
		return transport.Dial(lis.Addr(), time.Second)
	}, linkOpts)
	defer linkA.Close()
	linkB := spc.NewResilientLink(func() (*transport.Conn, error) {
		return lis.Accept()
	}, linkOpts)
	defer linkB.Close()

	stepped := topo.PEs[1].Service.EffectiveCost()
	a, err := spc.NewCluster(spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
		LocalNodes: []sdo.NodeID{0, 1}, Uplink: linkA,
		Processors: map[sdo.PEID]spc.Processor{
			1: spc.NewStepCost(201, stepped, o.StepFactor*stepped, o.StepAt),
		},
	})
	if err != nil {
		return nil, 0, 0, err
	}
	b, err := spc.NewCluster(spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
		LocalNodes: []sdo.NodeID{2}, Uplink: linkB,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	var serveWG sync.WaitGroup
	serveWG.Add(2)
	go func() {
		defer serveWG.Done()
		_ = linkA.Serve(a)
	}()
	go func() {
		defer serveWG.Done()
		_ = linkB.Serve(b)
	}()
	if mode == modeAdaptive {
		if err := a.StartRetarget(spc.RetargetConfig{Every: o.Every, Lambda: 0.7, MinSamples: 4}); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := a.Start(); err != nil {
		return nil, 0, 0, err
	}
	if err := b.Start(); err != nil {
		return nil, 0, 0, err
	}

	// Sample the weighted cumulative egress count on A's virtual clock.
	type sample struct {
		t float64
		n float64
	}
	var series []sample
	horizon := o.StepAt + o.Post
	oracleApplied := false
	for {
		now := a.Now()
		if mode == modeOracle && !oracleApplied && now >= o.StepAt {
			if err := a.SetTargets(1, oracleCPU); err != nil {
				return nil, 0, 0, err
			}
			oracleApplied = true
		}
		if oracleApplied && len(series)%20 == 0 {
			// Epoch-idempotent repair in case the dissemination raced the
			// link; the adaptive mode's loop re-broadcasts on its own.
			a.BroadcastTargets()
		}
		dA, dB := a.DeliveredByPE(), b.DeliveredByPE()
		var w float64
		for j := range topo.PEs {
			w += topo.PEs[j].Weight * float64(dA[j]+dB[j])
		}
		series = append(series, sample{t: now, n: w})
		if now >= horizon {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	epochA, epochB = a.TargetsEpoch(), b.TargetsEpoch()
	a.Stop()
	b.Stop()
	lis.Close()
	linkA.Close()
	linkB.Close()
	serveWG.Wait()

	rate = func(t0, t1 float64) float64 {
		i := sort.Search(len(series), func(i int) bool { return series[i].t >= t0 })
		j := sort.Search(len(series), func(i int) bool { return series[i].t >= t1 })
		if j >= len(series) {
			j = len(series) - 1
		}
		if i >= j || series[j].t <= series[i].t {
			return 0
		}
		return (series[j].n - series[i].n) / (series[j].t - series[i].t)
	}
	return rate, epochA, epochB, nil
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
	truth := *topo
	truth.PEs = append([]graph.PE(nil), topo.PEs...)
	sp := truth.PEs[1].Service
	sp.T0 *= o.StepFactor
	sp.T1 *= o.StepFactor
	truth.PEs[1].Service = sp
	oracle, err := optimize.Solve(&truth, optimize.Config{WarmStart: deployed.CPU})
	if err != nil {
		return RetargetRow{}, err
	}

	row := RetargetRow{Seed: o.Seed, StepAt: o.StepAt}
	frozenRate, _, _, err := retargetRun(o, topo, deployed.CPU, modeFrozen, nil)
	if err != nil {
		return row, err
	}
	adaptiveRate, epochs, peerEpoch, err := retargetRun(o, topo, deployed.CPU, modeAdaptive, nil)
	if err != nil {
		return row, err
	}
	oracleRate, _, _, err := retargetRun(o, topo, deployed.CPU, modeOracle, oracle.CPU)
	if err != nil {
		return row, err
	}

	horizon := o.StepAt + o.Post
	row.PreRate = frozenRate(o.StepAt-o.Window, o.StepAt)
	row.FrozenRate = frozenRate(horizon-o.Window, horizon)
	row.AdaptiveRate = adaptiveRate(horizon-o.Window, horizon)
	row.OracleRate = oracleRate(horizon-o.Window, horizon)
	row.Epochs = epochs
	row.PeerEpoch = peerEpoch
	if row.OracleRate > 0 {
		row.AdaptiveFrac = row.AdaptiveRate / row.OracleRate
		row.FrozenFrac = row.FrozenRate / row.OracleRate
	}
	row.Recovered = row.AdaptiveFrac >= 0.90 && row.FrozenFrac < 0.90 && row.PeerEpoch >= 1
	return row, nil
}
