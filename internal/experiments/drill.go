package experiments

import (
	"sort"
	"sync"
	"time"

	"aces/internal/graph"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/transport"
	"aces/internal/workload"
)

// This file is the harness the live-runtime acceptance drills (E10 chaos,
// E11 retarget, E12 elastic, E14 failover) share: one set of link
// options, one time-scale default, one sampled series, and the
// two-process run E11 and E12 both make.

// drillLinkOpts are every drill's resilient-link options: a small outbox
// and fast redials, so an outage heals within a fraction of a virtual
// second at the drills' time scales.
var drillLinkOpts = transport.ResilientOptions{
	QueueSize:    256,
	WriteTimeout: 50 * time.Millisecond,
	BackoffMin:   5 * time.Millisecond,
	BackoffMax:   50 * time.Millisecond,
	BatchMax:     32,
}

// drillTimeScale is the adaptive drills' default virtual-over-wall
// speedup: 10, or 3 in race builds. The race detector slows the process
// severalfold; at 10× the schedulers slip enough to starve the adaptive
// runs' calibration, so race builds trade wall time back for fidelity.
func drillTimeScale() float64 {
	if raceEnabled {
		return 3
	}
	return 10
}

// detService is a deterministic service profile (no state switching), so
// a drill's dips and drifts are the ones it injects, not workload state.
func detService(cost float64) workload.ServiceParams {
	return workload.ServiceParams{T0: cost, T1: cost, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
}

// sample is one point of a cumulative count on a virtual clock.
type sample struct{ t, n float64 }

// series is a cumulative count sampled every few wall milliseconds.
type series []sample

// rate is the count's growth per virtual second over [t0, t1]: from the
// first sample at or after t0 to the first at or after t1 (clamped to the
// last), 0 when that spans no time.
func (s series) rate(t0, t1 float64) float64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].t >= t0 })
	j := sort.Search(len(s), func(i int) bool { return s[i].t >= t1 })
	if j >= len(s) {
		j = len(s) - 1
	}
	if i >= j || s[j].t <= s[i].t {
		return 0
	}
	return (s[j].n - s[i].n) / (s[j].t - s[i].t)
}

// weighted is Σ w_j · delivered_j over PEs, the drills' throughput count.
func weighted(topo *graph.Topology, delivered ...[]int64) float64 {
	var w float64
	for _, d := range delivered {
		for j := range topo.PEs {
			w += topo.PEs[j].Weight * float64(d[j])
		}
	}
	return w
}

// column lifts a target vector into the per-slot matrix of a topology
// whose PEs have one slot each.
func column(cpu []float64) [][]float64 {
	rep := make([][]float64, len(cpu))
	for j, v := range cpu {
		rep[j] = []float64{v}
	}
	return rep
}

// withCost returns a copy of topo whose PE j costs factor times more, the
// truth an oracle re-solve is told.
func withCost(topo *graph.Topology, j int, factor float64) *graph.Topology {
	truth := *topo
	truth.PEs = append([]graph.PE(nil), topo.PEs...)
	sp := truth.PEs[j].Service
	sp.T0 *= factor
	sp.T1 *= factor
	truth.PEs[j].Service = sp
	return &truth
}

// splitDrill is the two-process deployment E11 and E12 share: process A
// hosts nodes {0, 1}, process B node {2}, and one resilient uplink pair
// crosses the boundary. PE 1 is the stepped PE in both. What differs
// between the two drills is data: the topology and its deployed targets,
// the processors, and the oracle matrix.
type splitDrill struct {
	topo             *graph.Topology
	cpu              []float64
	seed             int64
	timeScale, every float64
	stepAt, horizon  float64
	// proc builds a fresh processor for slot (j, rep) of either process,
	// nil for the default; each run calls it anew.
	proc func(j sdo.PEID, rep int32) spc.Processor
}

// splitRun is one splitDrill run: its weighted egress series on A's clock,
// both processes' final epochs, and the most slots of PE 1 active at once.
type splitRun struct {
	series         series
	epochA, epochB uint64
	peak           int
}

// retargetMode selects what closes (or doesn't close) the adaptive loop
// in one run.
type retargetMode int

const (
	modeFrozen retargetMode = iota
	modeAdaptive
	modeOracle
)

// runAll runs the drill frozen, adaptive and under the oracle, which
// installs the given matrix the instant the step lands.
func (d splitDrill) runAll(oracle [][]float64) (frozen, adaptive, orc splitRun, err error) {
	if frozen, err = d.run(modeFrozen, nil); err != nil {
		return
	}
	if adaptive, err = d.run(modeAdaptive, nil); err != nil {
		return
	}
	orc, err = d.run(modeOracle, oracle)
	return
}

func (d splitDrill) run(mode retargetMode, oracle [][]float64) (splitRun, error) {
	var out splitRun
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer lis.Close()
	linkA := spc.NewResilientLink(func() (*transport.Conn, error) {
		return transport.Dial(lis.Addr(), time.Second)
	}, drillLinkOpts)
	defer linkA.Close()
	linkB := spc.NewResilientLink(func() (*transport.Conn, error) {
		return lis.Accept()
	}, drillLinkOpts)
	defer linkB.Close()

	procsA := map[sdo.PEID]spc.Processor{}
	for j := range d.topo.PEs {
		if p := d.proc(sdo.PEID(j), 0); p != nil {
			procsA[sdo.PEID(j)] = p
		}
	}
	a, err := spc.NewCluster(spc.Config{
		Topo: d.topo, Policy: policy.ACES, CPU: d.cpu,
		TimeScale: d.timeScale, Warmup: 1, Seed: d.seed,
		LocalNodes: []sdo.NodeID{0, 1}, Uplink: linkA,
		Processors: procsA, ReplicaProcs: d.proc,
	})
	if err != nil {
		return out, err
	}
	b, err := spc.NewCluster(spc.Config{
		Topo: d.topo, Policy: policy.ACES, CPU: d.cpu,
		TimeScale: d.timeScale, Warmup: 1, Seed: d.seed,
		LocalNodes: []sdo.NodeID{2}, Uplink: linkB,
		ReplicaProcs: d.proc,
	})
	if err != nil {
		return out, err
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
		if err := a.StartRetarget(spc.RetargetConfig{Every: d.every, Lambda: 0.7, MinSamples: 4}); err != nil {
			return out, err
		}
	}
	if err := a.Start(); err != nil {
		return out, err
	}
	if err := b.Start(); err != nil {
		return out, err
	}

	oracleApplied := false
	for {
		now := a.Now()
		if mode == modeOracle && !oracleApplied && now >= d.stepAt {
			if err := a.SetReplicaTargets(1, oracle); err != nil {
				return out, err
			}
			oracleApplied = true
		}
		if oracleApplied && len(out.series)%20 == 0 {
			// Epoch-idempotent repair in case the dissemination raced the
			// link; the adaptive mode's loop re-broadcasts on its own.
			a.BroadcastTargets()
		}
		out.peak = max(out.peak, a.ActiveReplicas(1))
		out.series = append(out.series, sample{t: now, n: weighted(d.topo, a.DeliveredByPE(), b.DeliveredByPE())})
		if now >= d.horizon {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	out.epochA, out.epochB = a.TargetsEpoch(), b.TargetsEpoch()
	a.Stop()
	b.Stop()
	lis.Close()
	linkA.Close()
	linkB.Close()
	serveWG.Wait()
	return out, nil
}
