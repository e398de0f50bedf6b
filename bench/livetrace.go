package main

import (
	"fmt"
	"runtime"
	"time"

	"aces/internal/obs"
	"aces/internal/sdo"
	"aces/internal/spc"
)

// A traced invocation of -seconds n first runs n/4 untraced windows, so
// CPU per op and the tracing overhead compare two runs of one process,
// then n/2 traced ones; never fewer than minTracedWindows of either.
// Together with the probes it takes about as long as the untraced run.
const minTracedWindows = 6

func tracedWindows(seconds, share int) int {
	return max(minTracedWindows, windowsFor(seconds)/share)
}

// runLiveTraced is the traced run of a live workload: a short untraced
// baseline, then the same workload and seed with 1 SDO in 64 traced, the
// spans joined into per-layer numbers and written out, then the probes
// of the layers this workload enters.
func runLiveTraced(lw *liveWorkload, o options) (*Result, error) {
	res := newResult(o)
	base := newLiveRun(lw)
	if err := base.windowsUntilValid(tracedWindows(o.seconds, 4), func(int) error {
		_, err := base.window(nil, o.seed, false)
		return err
	}); err != nil {
		return nil, err
	}
	untraced := median(base.pick(opCPU))
	res.setSummary("bench.op_cpu_ns", summarize(base.pick(opCPU)))

	clockNS := clockReadNS()
	tr := &tracing{base: processStart}
	r := newLiveRun(lw)
	var ss spanSamples
	var recvMsgs int64
	var recvTime time.Duration
	err := r.windowsUntilValid(tracedWindows(o.seconds, 2), func(k int) error {
		tr.window = k
		first := len(tr.bufs)
		out, err := r.window(tr, o.seed, false)
		if err != nil {
			return err
		}
		startNS := int64(out.gen.clk.start.Sub(tr.base))
		ss.collect(tr.bufs[first:], out.d.hops, out.d.sinks, func(trace uint64) int64 {
			return startNS + int64(dueOffset(int64(trace&0xffffffff)-1, lw.rate))
		}, clockNS)
		if out.d.serveMsgs != nil {
			n, t := out.d.serveMsgs()
			recvMsgs += n
			recvTime += t
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.check(res)

	res.set("spc.admit_ns", pctl(ss.admit, 0.5))
	res.set("spc.emit_ns", pctl(ss.emit, 0.5))
	res.set("spc.egress_emit_ns", pctl(ss.egressEmit, 0.5))
	res.set("spc.process_self_ns", pctl(ss.processSelf, 0.5))
	res.set("spc.hop_wait_p50_ms", pctl(ss.hopWait, 0.5)/1e6)
	res.set("spc.hop_wait_p99_ms", pctl(ss.hopWait, 0.99)/1e6)
	var inflight, input int64
	var occ []float64
	for _, rep := range r.reports {
		inflight += rep.InFlightDrops
		input += rep.InputDrops
		occ = append(occ, rep.MeanBufferOccupancy)
	}
	res.set("spc.inflight_drop_count", float64(inflight))
	res.set("spc.input_drop_count", float64(input))
	res.set("spc.buffer_occ_mean", mean(occ))
	for name, xs := range r.phases {
		res.setSummary(name, summarize(xs))
	}
	res.setSummary("spc.stop_ms", summarize(r.stopMS))

	if len(r.links) > 0 {
		res.set("transport.send_ns", pctl(ss.send, 0.5))
		res.set("transport.transit_p50_us", pctl(ss.transit, 0.5)/1e3)
		res.set("transport.transit_p99_us", pctl(ss.transit, 0.99)/1e3)
		if recvMsgs > 0 {
			res.set("transport.recv_ns", float64(recvTime)/float64(recvMsgs))
		}
		var batches, batched, dropped, reconnects int64
		for _, l := range r.links {
			batches += l.BatchesSent
			batched += l.BatchedFrames
			dropped += l.FramesDropped
			reconnects += l.Reconnects
		}
		if batches > 0 {
			res.set("transport.batch_fill", float64(batched)/float64(batches))
		}
		res.set("transport.frames_dropped", float64(dropped))
		res.set("transport.reconnects", float64(reconnects))
	}

	traced := median(r.pick(opCPU))
	res.set("bench.trace_overhead_frac", traced/untraced-1)
	res.set("bench.span_cover_frac", pctl(ss.cover, 0.5))
	if c := pctl(ss.cover, 0.5); c < 0.9 || c > 1.1 {
		res.fail("the spans of a traced SDO cover %.3f of its life (due time to egress); want within 10%% of 1", c)
	}
	if ss.dropped > 0 {
		res.fail("%d spans were discarded by full span buffers", ss.dropped)
	}
	res.setSummary("bench.gen_late_p99_ms", summarize(r.pick(func(w windowStat) float64 { return w.lateP99US / 1e3 })))
	res.set("bench.windows", float64(r.validCount()))
	genCPU := genCPUPerSDO(lw)
	res.set("bench.gen_cpu_ns_per_sdo", genCPU)
	res.set("bench.cpu_unattributed_ns", untraced-ss.busyPerDelivery()-genCPU/float64(lw.fanout))

	path, err := writeTrace(o.outDir, lw.name, tr.bufs)
	if err != nil {
		return nil, err
	}
	res.TraceFile = path

	if lw.name == "chain_inproc" {
		if err := chainExtras(res, lw, o.seed, untraced); err != nil {
			return nil, err
		}
	}
	runProbes(res, workloadProbes[lw.name])
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, v := range xs {
		t += v
	}
	return t / float64(len(xs))
}

// genCPUPerSDO runs the generator for one window against a sink that
// does nothing: the harness's own CPU per injected SDO.
func genCPUPerSDO(lw *liveWorkload) float64 {
	clk := &runClock{warm: 0, win: liveWindow, nwin: 1}
	gen := newGenerator(clk, lw.rate, lw.payload, func(sdo.SDO) {})
	clk.start = time.Now()
	c0 := cpuTime()
	gen.run()
	return float64(cpuTime()-c0) / float64(sumInt64(gen.injected))
}

// chainExtras are the per-layer numbers defined on chain_inproc only:
// idle cost, the single-threaded baseline, the saturation rate and the
// product's own tracer overhead.
func chainExtras(res *Result, lw *liveWorkload, seed int64, untraced float64) error {
	// Idle: the same cluster with the generator silent — ticks and timers.
	clk := newWindowClock()
	d, err := lw.build(lw, clk, nil, seed)
	if err != nil {
		return err
	}
	c0, t0 := cpuTime(), time.Now()
	time.Sleep(2 * time.Second)
	res.set("spc.idle_cpu_frac", float64(cpuTime()-c0)/float64(time.Since(t0)))
	d.teardown()

	// The single-threaded baseline: the same workload at GOMAXPROCS=1.
	prev := runtime.GOMAXPROCS(1)
	p1 := newLiveRun(lw)
	err = p1.windowsUntilValid(minTracedWindows, func(int) error {
		_, err := p1.window(nil, seed, false)
		return err
	})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	res.set("spc.chain_cpu_ns_p1", median(p1.pick(opCPU)))

	sat, err := saturation(lw, seed)
	if err != nil {
		return err
	}
	res.set("spc.saturation_sdo_per_s", sat)

	// The product's own instrumentation: the same chain with the obs
	// tracer sampling 1 in 100 and telemetry on.
	traced := *lw
	traced.markEvery = 100
	traced.build = func(lw *liveWorkload, clk *runClock, tr *tracing, seed int64) (*deployment, error) {
		topo, cpu, err := chainTopo()
		if err != nil {
			return nil, err
		}
		return buildInprocWith(lw, clk, tr, seed, topo, cpu, func(cfg *spc.Config) {
			cfg.Tracer = obs.NewTracer(100, 1<<16, seed)
			cfg.Telemetry = obs.NewRegistry(nil)
		})
	}
	ob := newLiveRun(&traced)
	if err := ob.windowsUntilValid(minTracedWindows, func(int) error {
		_, err := ob.window(nil, seed, false)
		return err
	}); err != nil {
		return err
	}
	res.set("obs.tracer_overhead_ns", median(ob.pick(opCPU))-untraced)
	return nil
}

// saturation drives the chain closed-loop for 4 s: inject as fast as the
// ingress buffer stays below capacity. Informational — its run-to-run
// spread is far wider than any bound.
func saturation(lw *liveWorkload, seed int64) (float64, error) {
	clk := &runClock{warm: time.Second, win: 3 * time.Second, nwin: 1}
	d, err := lw.build(lw, clk, nil, seed)
	if err != nil {
		return 0, err
	}
	clk.start = time.Now()
	room := bigBuffer / 2
	s := sdo.SDO{Stream: 1, Bytes: 1}
	for time.Since(clk.start) < clk.total() {
		n := room - d.ingress.BufferLen(0)
		if n <= 0 {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			s.Seq++
			s.Origin = now
			d.inject(s)
		}
	}
	waitDrained(d, 2*time.Second)
	d.teardown()
	var n int64
	for _, sk := range d.sinks {
		n += sk.n[1]
	}
	if n == 0 {
		return 0, fmt.Errorf("saturation run delivered nothing")
	}
	return float64(n) / clk.win.Seconds(), nil
}
