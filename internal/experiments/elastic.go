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
)

// ElasticOptions scales E12, the elastic-parallelism experiment: a seeded
// 10× hotspot lands on one PE of a partitioned 3-node deployment. The
// hotspot exceeds what ANY allocation on the PE's own node can absorb, so
// a frozen topology is structurally stuck; the elastic adaptive loop must
// discover the new cost online, choose replica counts from the calibrated
// model, and spread the PE across its declared slots — judged against an
// oracle that applies the true-cost elastic re-solve the instant the
// hotspot lands. The zero value picks defaults.
type ElasticOptions struct {
	// Seed drives workloads and sources.
	Seed int64
	// TimeScale is the virtual-over-wall speedup (default 10).
	TimeScale float64
	// StepAt is when the hotspot lands, virtual seconds (default 3; must
	// exceed the warmup of 1).
	StepAt float64
	// Post is the observation horizon after the hotspot (default 9).
	Post float64
	// Window is the throughput-measurement window (default 2).
	Window float64
	// Every is the adaptive loop's re-solve period (default 0.5).
	Every float64
	// StepFactor multiplies the hot PE's cost (default 10).
	StepFactor float64
}

func (o *ElasticOptions) fillDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 10
		if raceEnabled {
			// Same trade as E11: the race detector slows the process, so
			// buy scheduler fidelity back with wall time.
			o.TimeScale = 3
		}
	}
	if o.StepAt <= 1 {
		o.StepAt = 3
	}
	if o.Post <= 0 {
		o.Post = 9
	}
	if o.Window <= 0 {
		o.Window = 2
	}
	if o.Every <= 0 {
		o.Every = 0.5
	}
	if o.StepFactor <= 1 {
		o.StepFactor = 10
	}
}

// ElasticRow is one E12 outcome. Rates are weighted egress deliveries per
// virtual second over the final measurement window.
type ElasticRow struct {
	Seed   int64   `json:"seed"`
	StepAt float64 `json:"step_at"`
	// PreRate is the healthy weighted rate over the window ending at the
	// hotspot (from the frozen run).
	PreRate float64 `json:"pre_rate"`
	// FrozenRate, ElasticRate and OracleRate are the final-window weighted
	// rates of the three runs.
	FrozenRate  float64 `json:"frozen_rate"`
	ElasticRate float64 `json:"elastic_rate"`
	OracleRate  float64 `json:"oracle_rate"`
	// ElasticFrac and FrozenFrac normalize by the oracle.
	ElasticFrac float64 `json:"elastic_frac"`
	FrozenFrac  float64 `json:"frozen_frac"`
	// ActiveReplicas is the largest replica count the elastic loop applied
	// to the hot PE (must exceed 1 for the verdict — the loop has to
	// actually fan out, not just retune the primary).
	ActiveReplicas int `json:"active_replicas"`
	// Epochs is the coordinator's final target epoch; PeerEpoch the peer
	// process's (≥ 1 proves replica targets crossed the wire).
	Epochs    uint64 `json:"epochs"`
	PeerEpoch uint64 `json:"peer_epoch"`
	// Recovered is the verdict: the elastic loop reaches ≥ 90% of the
	// oracle with more than one replica active while the frozen topology
	// stays degraded.
	Recovered bool `json:"recovered"`
}

// elasticTopo is the E12 deployment. Process A hosts nodes {0, 1}, process
// B node {2}; one resilient uplink pair crosses the boundary.
//
//	node 0: PE0 ingest (0.1 ms)                    source S: 800/s
//	        PE1 hot (0.3 ms → 3 ms), MaxReplicas 3, extra slots on
//	        nodes 1 and 2
//	node 1: PE2 egress, weight 4 (0.05 ms)
//	node 2: (hosts PE1's slot 2 when activated)
//
// Post-hotspot PE1 needs 800/s × 3 ms = 2.4 CPU — more than twice any
// node's budget, so no single-node allocation absorbs it: only fanning the
// PE out across its replica slots can.
func elasticTopo() (*graph.Topology, error) {
	topo := graph.New(3, 50)
	p0 := topo.AddPE(graph.PE{Service: retargetService(0.0001), Node: 0})
	p1 := topo.AddPE(graph.PE{
		Service: retargetService(0.0003), Node: 0,
		MaxReplicas: 3, ReplicaNodes: []sdo.NodeID{1, 2},
	})
	p2 := topo.AddPE(graph.PE{Service: retargetService(0.00005), Node: 1, Weight: 4})
	if err := topo.Connect(p0, p1); err != nil {
		return nil, err
	}
	if err := topo.Connect(p1, p2); err != nil {
		return nil, err
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: p0, Rate: 800, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		return nil, err
	}
	return topo, nil
}

// elasticRun executes one partitioned run and returns the weighted egress
// rate sampler plus the end-of-run epochs and the peak replica count the
// coordinator applied to the hot PE.
func elasticRun(o ElasticOptions, topo *graph.Topology, cpu []float64, mode retargetMode, oracleRep [][]float64) (rate func(t0, t1 float64) float64, epochA, epochB uint64, peakReplicas int, err error) {
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, 0, err
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

	// Every incarnation of the hot PE — primary and replicas, both
	// processes — steps its cost at the same virtual instant: the hotspot
	// is a property of the stream content, so a replica cannot dodge it.
	base := topo.PEs[1].Service.EffectiveCost()
	hotProc := func(stream sdo.StreamID) spc.Processor {
		return spc.NewStepCost(stream, base, o.StepFactor*base, o.StepAt)
	}
	replicaProcs := func(j sdo.PEID, rep int32) spc.Processor {
		if j != 1 {
			return nil
		}
		return hotProc(sdo.StreamID(300 + int32(rep)))
	}
	a, err := spc.NewCluster(spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
		LocalNodes: []sdo.NodeID{0, 1}, Uplink: linkA,
		Processors:   map[sdo.PEID]spc.Processor{1: hotProc(300)},
		ReplicaProcs: replicaProcs,
	})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	b, err := spc.NewCluster(spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
		LocalNodes: []sdo.NodeID{2}, Uplink: linkB,
		ReplicaProcs: replicaProcs,
	})
	if err != nil {
		return nil, 0, 0, 0, err
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
		if err := a.StartRetarget(spc.RetargetConfig{Every: o.Every, Lambda: 0.7, MinSamples: 4, Elastic: true}); err != nil {
			return nil, 0, 0, 0, err
		}
	}
	if err := a.Start(); err != nil {
		return nil, 0, 0, 0, err
	}
	if err := b.Start(); err != nil {
		return nil, 0, 0, 0, err
	}

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
			if err := a.SetReplicaTargets(1, oracleRep); err != nil {
				return nil, 0, 0, 0, err
			}
			oracleApplied = true
		}
		if oracleApplied && len(series)%20 == 0 {
			a.BroadcastTargets()
		}
		if n := a.ActiveReplicas(1); n > peakReplicas {
			peakReplicas = n
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
	return rate, epochA, epochB, peakReplicas, nil
}

// RunElastic executes E12 once: deploy with the frozen (primary-only)
// tier-1 solve on declared models, land the 10× hotspot, and measure the
// final-window weighted throughput under frozen targets, under the elastic
// adaptive loop, and under an oracle that installs the true-cost elastic
// allocation at the hotspot. The verdict demands the elastic loop reach
// ≥ 90% of the oracle with more than one replica active while the frozen
// deployment stays degraded.
func RunElastic(o ElasticOptions) (ElasticRow, error) {
	o.fillDefaults()
	topo, err := elasticTopo()
	if err != nil {
		return ElasticRow{}, err
	}
	deployed, err := optimize.Solve(topo, optimize.Config{})
	if err != nil {
		return ElasticRow{}, err
	}
	// The oracle knows the true post-hotspot cost and may use the replica
	// slots — the bound the online loop is judged against.
	truth := *topo
	truth.PEs = append([]graph.PE(nil), topo.PEs...)
	sp := truth.PEs[1].Service
	sp.T0 *= o.StepFactor
	sp.T1 *= o.StepFactor
	truth.PEs[1].Service = sp
	oracle, err := optimize.SolveElastic(&truth, optimize.Config{})
	if err != nil {
		return ElasticRow{}, err
	}

	row := ElasticRow{Seed: o.Seed, StepAt: o.StepAt}
	frozenRate, _, _, _, err := elasticRun(o, topo, deployed.CPU, modeFrozen, nil)
	if err != nil {
		return row, err
	}
	elasticRate, epochs, peerEpoch, peak, err := elasticRun(o, topo, deployed.CPU, modeAdaptive, nil)
	if err != nil {
		return row, err
	}
	oracleRate, _, _, _, err := elasticRun(o, topo, deployed.CPU, modeOracle, oracle.Replica)
	if err != nil {
		return row, err
	}

	horizon := o.StepAt + o.Post
	row.PreRate = frozenRate(o.StepAt-o.Window, o.StepAt)
	row.FrozenRate = frozenRate(horizon-o.Window, horizon)
	row.ElasticRate = elasticRate(horizon-o.Window, horizon)
	row.OracleRate = oracleRate(horizon-o.Window, horizon)
	row.ActiveReplicas = peak
	row.Epochs = epochs
	row.PeerEpoch = peerEpoch
	if row.OracleRate > 0 {
		row.ElasticFrac = row.ElasticRate / row.OracleRate
		row.FrozenFrac = row.FrozenRate / row.OracleRate
	}
	row.Recovered = row.ElasticFrac >= 0.90 && row.FrozenFrac < 0.90 &&
		row.ActiveReplicas > 1 && row.PeerEpoch >= 1
	return row, nil
}
