package main

import (
	"reflect"
	"runtime"
	"time"

	"aces/internal/graph"
	"aces/internal/metrics"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/streamsim"
)

// sim_scale sizing: the paper-scale simulator on a generated 1000-PE
// topology, 40 virtual seconds per repetition at the default Δt.
const (
	simPEs      = 1000
	simNodes    = 100
	simDuration = 40.0 // virtual s
	simDt       = 0.010
)

// simSetup is sim_scale set up: topology, tier-1 targets and one engine.
type simSetup struct {
	topo   *graph.Topology
	cpu    []float64
	engine *streamsim.Engine
	phases map[string]float64 // ms
}

func (s *simSetup) newEngine(seed int64) (*streamsim.Engine, error) {
	return streamsim.New(streamsim.Config{
		Topo: s.topo, Policy: policy.ACES, CPU: s.cpu, Dt: simDt, Duration: simDuration, Seed: seed,
	})
}

func setupSim(seed int64) (*simSetup, error) {
	s := &simSetup{phases: map[string]float64{}}
	t0 := time.Now()
	topo, err := graph.Generate(graph.DefaultGenConfig(simPEs, simNodes, seed))
	if err != nil {
		return nil, err
	}
	s.phases["graph.generate_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	s.phases["graph.validate_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	al, err := optimize.Solve(topo, optimize.Config{})
	if err != nil {
		return nil, err
	}
	s.phases["optimize.cold_solve_ms"] = ms(time.Since(t0))
	s.topo, s.cpu = topo, al.CPU
	t0 = time.Now()
	if s.engine, err = s.newEngine(seed); err != nil {
		return nil, err
	}
	s.phases["streamsim.new_ms"] = ms(time.Since(t0))
	return s, nil
}

// simRep is one repetition: a fresh engine run for 40 virtual seconds.
type simRep struct {
	newTime   time.Duration
	wall, cpu time.Duration
	mallocs   uint64
	steps     uint64
	report    metrics.Report
}

// runSimReps repeats the simulation until the time is up. Every
// repetition sees the same inputs, so every Report must be identical.
func runSimReps(s *simSetup, seed int64, d time.Duration, tb *spanBuf) ([]simRep, error) {
	var reps []simRep
	engine := s.engine
	for start := time.Now(); time.Since(start) < d; {
		var rep simRep
		if engine == nil {
			t0 := time.Now()
			var err error
			if engine, err = s.newEngine(seed); err != nil {
				return nil, err
			}
			rep.newTime = time.Since(t0)
			if tb != nil {
				tb.addPhase(uint64(len(reps)+1), "new", "streamsim", -1, int64(t0.Sub(processStart)), int64(time.Since(processStart)))
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, t0 := cpuTime(), time.Now()
		rep.report = engine.Run()
		rep.wall, rep.cpu = time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&m1)
		rep.mallocs = m1.Mallocs - m0.Mallocs
		rep.steps = engine.Sim().Steps()
		if tb != nil {
			tb.addPhase(uint64(len(reps)+1), "run", "streamsim", -1, int64(t0.Sub(processStart)), int64(time.Since(processStart)))
		}
		reps = append(reps, rep)
		engine = nil
	}
	return reps, nil
}

// checkSim gates determinism and returns how many repetitions matched
// the first.
func checkSim(res *Result, reps []simRep) int64 {
	var same int64
	for i, rep := range reps {
		if reflect.DeepEqual(rep.report, reps[0].report) {
			same++
		} else {
			res.fail("repetition %d's Report differs from the first: the simulator is not deterministic", i)
		}
	}
	if reps[0].report.Deliveries == 0 {
		res.fail("the simulation delivered nothing")
	}
	res.Attempted, res.Failed = int64(len(reps)), int64(len(reps))-same
	return same
}

func repWallMS(reps []simRep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = ms(r.wall)
	}
	return out
}

// runSim is sim_scale, untraced: the end-to-end metrics with one
// 40-virtual-second simulation as the op.
func runSim(o options) (*Result, error) {
	res := newResult(o)
	var setups []float64
	var s *simSetup
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if s, err = setupSim(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	retained := retainedMB()
	reps, err := runSimReps(s, o.seed, time.Duration(o.seconds)*time.Second, nil)
	if err != nil {
		return nil, err
	}
	same := checkSim(res, reps)
	var rate, allocs []float64
	for _, r := range reps {
		rate = append(rate, 1/r.wall.Seconds())
		allocs = append(allocs, float64(r.mallocs))
	}
	res.setSummary("setup_s", summarize(setups))
	res.setSummary("ops_per_s", summarize(rate))
	res.set("done_frac", float64(same)/float64(len(reps)))
	res.setSummary("latency_p50_ms", summarize(repWallMS(reps)))
	res.set("latency_p99_ms", pctl(repWallMS(reps), 0.99))
	res.setSummary("allocs_per_op", summarize(allocs))
	res.set("retained_mb", retained)
	return res, nil
}

// runSimTraced is sim_scale's traced run: New and Run as spans and the
// simulator's per-layer numbers.
func runSimTraced(o options) (*Result, error) {
	res := newResult(o)
	s, err := setupSim(o.seed)
	if err != nil {
		return nil, err
	}
	tb := newSpanBuf(1 << 10)
	reps, err := runSimReps(s, o.seed, time.Duration(o.seconds)*time.Second, tb)
	if err != nil {
		return nil, err
	}
	checkSim(res, reps)
	for name, v := range s.phases {
		res.set(name, v)
	}
	ticks := simDuration / simDt
	var newMS, perTick, events, speedup, cpu []float64
	for _, r := range reps {
		cpu = append(cpu, float64(r.cpu))
		if r.newTime > 0 {
			newMS = append(newMS, ms(r.newTime))
		}
		perTick = append(perTick, float64(r.cpu.Microseconds())/(simPEs*ticks))
		events = append(events, float64(r.steps)/r.wall.Seconds())
		speedup = append(speedup, simDuration/r.wall.Seconds())
	}
	if len(newMS) > 0 {
		res.setSummary("streamsim.new_ms", summarize(newMS))
	}
	res.setSummary("streamsim.us_per_pe_tick", summarize(perTick))
	res.setSummary("streamsim.sim_speedup", summarize(speedup))
	res.setSummary("sim.events_per_s", summarize(events))
	res.set("streamsim.deliveries", float64(reps[0].report.Deliveries))
	res.set("streamsim.weighted_throughput", reps[0].report.WeightedThroughput)
	res.set("bench.windows", float64(len(reps)))
	res.setSummary("bench.op_cpu_ns", summarize(cpu))
	path, err := writeTrace(o.outDir, o.workload, []*spanBuf{tb})
	if err != nil {
		return nil, err
	}
	res.TraceFile = path
	runProbes(res, workloadProbes[o.workload])
	return res, nil
}
