package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"aces/internal/graph"
	"aces/internal/hier"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/spc"
	"aces/internal/transport"
)

// control_epoch sizing: a 2000-PE generated topology over 200 nodes, split
// half and half between two clusters whose data plane stays idle.
const (
	controlPEs     = 2000
	controlNodes   = 200
	driftShare     = 10 // one PE in driftShare drifts each epoch
	observePerPE   = 6
	hierRegions    = 8
	hierEvery      = 4 // traced run: every 4th epoch also runs the hier solver
	referenceEvery = 6 // traced run: every 6th epoch is checked against a 4x-budget solve
	ackLimit       = 5 * time.Second
	controlDt      = 0.1
	countedEpochs  = 8 // epochs optimize.warm_iters and warm_evals are medians over
)

// controlPlane is control_epoch set up: the real topology the solver
// works on, its cold solution, and two idle clusters joined by loopback.
type controlPlane struct {
	topo     *graph.Topology
	cold     *optimize.Allocation
	a, b     *spc.Cluster
	teardown func()
	phases   map[string]float64 // ms
}

// setupControl generates the topology from the seed, solves it cold and
// deploys it on two clusters whose sources are silenced: the clusters need
// the topology's shape, not its load.
func setupControl(seed int64) (*controlPlane, error) {
	cp := &controlPlane{phases: map[string]float64{}}
	t0 := time.Now()
	topo, err := graph.Generate(graph.DefaultGenConfig(controlPEs, controlNodes, seed))
	if err != nil {
		return nil, err
	}
	cp.phases["graph.generate_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	cp.phases["graph.validate_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	cold, err := optimize.Solve(topo, optimize.Config{})
	if err != nil {
		return nil, err
	}
	cp.phases["optimize.cold_solve_ms"] = ms(time.Since(t0))
	cp.topo, cp.cold = topo, cold

	idle := *topo
	idle.Sources = append([]graph.Source(nil), topo.Sources...)
	for i := range idle.Sources {
		idle.Sources[i].Rate = placeholder
		idle.Sources[i].Burst = graph.BurstSpec{Kind: graph.BurstDeterministic}
	}

	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	linkA := spc.NewResilientLink(func() (*transport.Conn, error) { return transport.Dial(lis.Addr(), time.Second) }, transport.ResilientOptions{})
	linkB := spc.NewResilientLink(func() (*transport.Conn, error) { return lis.Accept() }, transport.ResilientOptions{})
	_ = linkA.SendFeedback(-1, 0)
	_ = linkB.SendFeedback(-1, 0)
	if !waitUntil(5*time.Second, func() bool { return linkA.Stats().FramesSent > 0 && linkB.Stats().FramesSent > 0 }) {
		return nil, fmt.Errorf("control_epoch: loopback link did not come up")
	}
	cp.phases["transport.dial_hello_ms"] = ms(time.Since(t0))

	var nodesA, nodesB []sdo.NodeID
	for n := 0; n < controlNodes; n++ {
		if n < controlNodes/2 {
			nodesA = append(nodesA, sdo.NodeID(n))
		} else {
			nodesB = append(nodesB, sdo.NodeID(n))
		}
	}
	t0 = time.Now()
	newCluster := func(nodes []sdo.NodeID, up spc.RemoteLink) (*spc.Cluster, error) {
		return spc.NewCluster(spc.Config{
			Topo: &idle, Policy: policy.ACES, CPU: cold.CPU, Dt: controlDt, TimeScale: 1,
			Warmup: 1e-9, Seed: seed, LocalNodes: nodes, Uplink: up,
		})
	}
	if cp.a, err = newCluster(nodesA, linkA); err != nil {
		return nil, err
	}
	if cp.b, err = newCluster(nodesB, linkB); err != nil {
		return nil, err
	}
	cp.phases["spc.new_cluster_ms"] = ms(time.Since(t0))
	var serveWG sync.WaitGroup
	serveWG.Add(2)
	go func() {
		defer serveWG.Done()
		_ = linkA.Serve(cp.a)
	}()
	go func() {
		defer serveWG.Done()
		_ = linkB.Serve(cp.b)
	}()
	t0 = time.Now()
	if err := cp.a.Start(); err != nil {
		return nil, err
	}
	if err := cp.b.Start(); err != nil {
		return nil, err
	}
	cp.phases["spc.start_ms"] = ms(time.Since(t0))
	cp.teardown = func() {
		t0 := time.Now()
		cp.a.Stop()
		cp.b.Stop()
		cp.phases["spc.stop_ms"] = ms(time.Since(t0))
		lis.Close()
		linkA.Close()
		linkB.Close()
		serveWG.Wait()
	}
	return cp, nil
}

// epochStat is one control epoch's measurements.
type epochStat struct {
	wall, cpu   time.Duration
	mallocs     uint64
	calibrate   time.Duration
	solve       time.Duration
	setTargets  time.Duration
	disseminate time.Duration
	iters       int
	evals       int
	acked       bool
}

// controlLoop runs control epochs for the given time. Each epoch drifts
// the true per-SDO cost of a seeded tenth of the PEs, feeds the calibrator
// six windows per PE, re-solves warm from the incumbent, installs the
// targets on cluster A and waits until cluster B has applied the epoch.
type controlLoop struct {
	cp    *controlPlane
	res   *Result
	cal   *optimize.Calibrator
	rng   *sim.Rand
	truth []float64 // true effective cost per PE, drifting
	base  []float64 // declared effective cost per PE
	cpu   []float64 // incumbent targets
	epoch uint64
	tb    *spanBuf // traced run only
	tbase time.Time
}

func newControlLoop(cp *controlPlane, res *Result, seed int64) *controlLoop {
	l := &controlLoop{
		cp: cp, res: res, cal: optimize.NewCalibrator(cp.topo, 0.7, 4),
		rng: sim.Substream(seed, 0xD21F7), cpu: cp.cold.CPU,
	}
	for j := range cp.topo.PEs {
		c := cp.topo.PEs[j].Service.EffectiveCost()
		l.base = append(l.base, c)
		l.truth = append(l.truth, c)
	}
	return l
}

func (l *controlLoop) phase(name, layer string, parent int32, t0, t1 time.Time) {
	if l.tb != nil {
		l.tb.addPhase(l.epoch, name, layer, parent, int64(t0.Sub(l.tbase)), int64(t1.Sub(l.tbase)))
	}
}

// step runs one epoch and returns its measurements and the calibrated
// topology the solver saw.
func (l *controlLoop) step() (epochStat, *graph.Topology) {
	topo := l.cp.topo
	p := topo.NumPEs()
	l.epoch++
	for k := 0; k < p/driftShare; k++ {
		j := l.rng.Intn(p)
		l.truth[j] = l.base[j] * l.rng.Uniform(0.7, 1.4)
	}
	var st epochStat
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	root := int32(-1)
	if l.tb != nil {
		root = l.tb.openPhase(l.epoch, "epoch", "bench", -1, int64(t0.Sub(l.tbase)))
	}

	for j := 0; j < p; j++ {
		for s := 0; s < observePerPE; s++ {
			c := 0.05 * float64(s+1)
			l.cal.Observe(j, c, c/l.truth[j])
		}
	}
	ct := l.cal.Calibrated()
	t1 := time.Now()
	st.calibrate = t1.Sub(t0)
	l.phase("calibrate", "optimize", root, t0, t1)

	warm, err := optimize.Solve(ct, optimize.Config{WarmStart: l.cpu})
	t2 := time.Now()
	st.solve = t2.Sub(t1)
	l.phase("solve", "optimize", root, t1, t2)
	if err != nil {
		l.res.fail("epoch %d: warm solve: %v", l.epoch, err)
		return st, ct
	}
	st.iters, st.evals = warm.Iterations, warm.Evals
	if warm.ColdStart {
		l.res.fail("epoch %d: the warm solve fell back to a cold start", l.epoch)
	}
	if n, sum := worstNode(topo, warm.CPU); sum > 1+1e-9 {
		l.res.fail("epoch %d: targets infeasible, node %d sums to %.6f", l.epoch, n, sum)
	}
	l.cpu = warm.CPU

	if err := l.cp.a.SetTargets(l.epoch, warm.CPU); err != nil {
		l.res.fail("epoch %d: SetTargets: %v", l.epoch, err)
	}
	t3 := time.Now()
	st.setTargets = t3.Sub(t2)
	l.phase("install", "spc", root, t2, t3)
	// Re-broadcasting is the documented repair for a lost target frame:
	// receivers drop stale epochs, so repetition is harmless, and on a
	// link whose control lane also carries every PE's feedback a single
	// frame can be crowded out.
	var polls int
	st.acked = waitUntil(ackLimit, func() bool {
		if polls%10 == 0 {
			l.cp.a.BroadcastTargets()
		}
		polls++
		return l.cp.b.TargetsEpoch() >= l.epoch
	})
	t4 := time.Now()
	st.disseminate = t4.Sub(t3)
	l.phase("disseminate", "transport", root, t3, t4)
	if !st.acked {
		l.res.fail("epoch %d: the peer never applied it (still at %d)", l.epoch, l.cp.b.TargetsEpoch())
	}

	st.wall, st.cpu = t4.Sub(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	if l.tb != nil {
		l.tb.close(root, int64(t4.Sub(l.tbase)))
	}
	return st, ct
}

// weightedThroughput is Σ w_j · r_out,j of an allocation on a topology.
func weightedThroughput(t *graph.Topology, cpu []float64) (float64, error) {
	_, rout, err := optimize.Propagate(t, cpu)
	if err != nil {
		return 0, err
	}
	var wt float64
	for j := range rout {
		wt += t.PEs[j].Weight * rout[j]
	}
	return wt, nil
}

// worstNode returns the node with the largest target sum.
func worstNode(t *graph.Topology, cpu []float64) (int, float64) {
	sums := make([]float64, t.NumNodes)
	for j := range cpu {
		sums[t.PEs[j].Node] += cpu[j]
	}
	worst := 0
	for n, s := range sums {
		if s > sums[worst] {
			worst = n
		}
	}
	return worst, sums[worst]
}

// runFor steps until the time is up.
func (l *controlLoop) runFor(d time.Duration, each func(epochStat, *graph.Topology)) []epochStat {
	var out []epochStat
	for start := time.Now(); time.Since(start) < d; {
		st, ct := l.step()
		out = append(out, st)
		if each != nil {
			each(st, ct)
		}
	}
	return out
}

func durationsMS(sts []epochStat, f func(epochStat) time.Duration) []float64 {
	out := make([]float64, len(sts))
	for i, st := range sts {
		out[i] = ms(f(st))
	}
	return out
}

// runControl is control_epoch, untraced: the end-to-end metrics with one
// epoch as the op.
func runControl(o options) (*Result, error) {
	res := newResult(o)
	var setups []float64
	var cp *controlPlane
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if cp, err = setupControl(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			cp.teardown()
			runtime.GC()
		}
	}
	loop := newControlLoop(cp, res, o.seed)
	sts := loop.runFor(time.Duration(o.seconds)*time.Second, nil)
	retained := retainedMB()
	cp.teardown()
	controlEndToEnd(res, sts, setups, retained)
	return res, nil
}

// controlEndToEnd fills the end-to-end metrics from the epochs.
func controlEndToEnd(res *Result, sts []epochStat, setups []float64, retained float64) {
	var acked int64
	var rate, allocs []float64
	for _, st := range sts {
		if st.acked {
			acked++
		}
		rate = append(rate, 1/st.wall.Seconds())
		allocs = append(allocs, float64(st.mallocs))
	}
	wall := durationsMS(sts, func(s epochStat) time.Duration { return s.wall })
	res.Attempted, res.Failed = int64(len(sts)), int64(len(sts))-acked
	res.setSummary("setup_s", summarize(setups))
	res.setSummary("ops_per_s", summarize(rate))
	res.set("done_frac", float64(acked)/float64(len(sts)))
	res.setSummary("latency_p50_ms", summarize(wall))
	res.set("latency_p99_ms", pctl(wall, 0.99))
	res.setSummary("allocs_per_op", summarize(allocs))
	res.set("retained_mb", retained)
}

// runControlTraced is control_epoch's traced run: the epoch phases as
// spans, the per-layer numbers, the hier solver beside every hierEvery-th
// epoch and a 4x-budget reference solve beside every referenceEvery-th.
func runControlTraced(o options) (*Result, error) {
	res := newResult(o)
	cp, err := setupControl(o.seed)
	if err != nil {
		return nil, err
	}
	loop := newControlLoop(cp, res, o.seed)
	loop.tb = newSpanBuf(1 << 12)
	loop.tbase = processStart

	var partMS, hierMS, sweeps, hierQ, quality []float64
	sts := loop.runFor(time.Duration(o.seconds)*time.Second, func(st epochStat, ct *graph.Topology) {
		mono, err := weightedThroughput(ct, loop.cpu)
		if err != nil {
			res.fail("epoch %d: %v", loop.epoch, err)
			return
		}
		if loop.epoch%hierEvery == 0 {
			t0 := time.Now()
			dec, err := hier.Partition(ct, hier.PartitionConfig{Regions: hierRegions})
			t1 := time.Now()
			if err != nil {
				res.fail("epoch %d: hier.Partition: %v", loop.epoch, err)
				return
			}
			h, err := hier.Solve(ct, dec, hier.Config{Optimize: optimize.Config{WarmStart: loop.cpu}})
			t2 := time.Now()
			if err != nil {
				res.fail("epoch %d: hier.Solve: %v", loop.epoch, err)
				return
			}
			loop.phase("partition", "hier", -1, t0, t1)
			loop.phase("solve", "hier", -1, t1, t2)
			partMS = append(partMS, ms(t1.Sub(t0)))
			hierMS = append(hierMS, ms(t2.Sub(t1)))
			sweeps = append(sweeps, float64(h.Sweeps))
			hierQ = append(hierQ, h.WeightedThroughput/mono)
		}
		if loop.epoch%referenceEvery == 0 {
			ref, err := optimize.Solve(ct, optimize.Config{WarmStart: loop.cpu, MaxIters: 4 * 4000})
			if err != nil {
				res.fail("epoch %d: reference solve: %v", loop.epoch, err)
				return
			}
			quality = append(quality, mono/ref.WeightedThroughput)
		}
	})
	cp.teardown()

	var acked int64
	var iters, evals, evalUS, cpu []float64
	for _, st := range sts {
		if st.acked {
			acked++
		}
		cpu = append(cpu, float64(st.cpu))
		// The counts must repeat exactly from run to run, and how many
		// epochs fit in the time does not: they cover the first ones only.
		if len(iters) < countedEpochs {
			iters = append(iters, float64(st.iters))
			evals = append(evals, float64(st.evals))
		}
		if st.evals > 0 {
			evalUS = append(evalUS, float64(st.solve.Microseconds())/float64(st.evals))
		}
	}
	res.Attempted, res.Failed = int64(len(sts)), int64(len(sts))-acked
	for name, v := range cp.phases {
		res.set(name, v)
	}
	us := func(f func(epochStat) time.Duration) Summary {
		xs := durationsMS(sts, f)
		for i := range xs {
			xs[i] *= 1e3
		}
		return summarize(xs)
	}
	res.setSummary("optimize.warm_solve_ms", summarize(durationsMS(sts, func(s epochStat) time.Duration { return s.solve })))
	res.setSummary("optimize.warm_iters", summarize(iters))
	res.setSummary("optimize.warm_evals", summarize(evals))
	res.setSummary("optimize.eval_us", summarize(evalUS))
	res.setSummary("optimize.calibrate_us", us(func(s epochStat) time.Duration { return s.calibrate }))
	res.set("optimize.cold_start_count", 0) // a cold start fails the run above
	res.setSummary("optimize.solve_quality", summarize(quality))
	if q := median(quality); len(quality) > 0 && q < minSolveQuality {
		res.fail("solve_quality %.5f: the warm solve reaches less than %.3f of a 4x-budget reference", q, minSolveQuality)
	}
	res.setSummary("spc.set_targets_us", us(func(s epochStat) time.Duration { return s.setTargets }))
	res.setSummary("spc.disseminate_ms", summarize(durationsMS(sts, func(s epochStat) time.Duration { return s.disseminate })))
	res.setSummary("hier.partition_ms", summarize(partMS))
	res.setSummary("hier.solve_ms", summarize(hierMS))
	res.setSummary("hier.sweeps", summarize(sweeps))
	res.setSummary("hier.quality", summarize(hierQ))
	res.set("bench.windows", float64(len(sts)))
	res.setSummary("bench.op_cpu_ns", summarize(cpu))

	path, err := writeTrace(o.outDir, o.workload, []*spanBuf{loop.tb})
	if err != nil {
		return nil, err
	}
	res.TraceFile = path
	runProbes(res, workloadProbes[o.workload])
	return res, nil
}

// minSolveQuality is the floor on warm-solve weighted throughput relative
// to a reference solve of the same calibrated topology at 4x MaxIters.
const minSolveQuality = 0.995
