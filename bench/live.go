package main

import (
	"time"

	"aces/internal/graph"
	"aces/internal/metrics"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/spc"
	"aces/internal/transport"
	"aces/internal/workload"
)

// Sizing facts every live workload is built around (see README.md):
// a PE is granted CPU only on its node's Δt tick, in proportion to its
// buffer occupancy, so one hop moves at most bufCap/Δt SDO/s — hence
// large buffers, TimeScale 1 and the default Δt.
const (
	liveDt      = 0.010
	bigBuffer   = 32768
	placeholder = 1e-6 // SDO/s of the source Topology.Validate insists on
	liveWarm    = 300 * time.Millisecond
	liveWindow  = 500 * time.Millisecond
	lateLimitUS = 20_000
)

// fixedCost is a deterministic service profile of cost seconds per SDO.
func fixedCost(cost float64) workload.ServiceParams {
	return workload.ServiceParams{T0: cost, T1: cost, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
}

// sink is the benchmark's egress processor: it timestamps every SDO it
// is handed, keeps its latency, and then calls emit so the product's own
// egress path (clock + collector) still runs.
type sink struct {
	clk  *runClock
	pe   int32
	cost float64
	n    []int64   // deliveries per slot, by arrival time
	due  []int64   // deliveries per slot, by the SDO's due time
	lat  [][]int32 // per slot, due → egress in units of 100 ns
	tb   *spanBuf  // non-nil in the traced run
	base time.Time
}

func newSink(clk *runClock, pe int32, cost float64, perWindow int) *sink {
	s := &sink{clk: clk, pe: pe, cost: cost, n: make([]int64, clk.slots()), due: make([]int64, clk.slots()), lat: make([][]int32, clk.slots())}
	for w := range s.lat {
		s.lat[w] = make([]int32, 0, perWindow+1024)
	}
	return s
}

// NextCost implements spc.CostModeler; without it the PE would fall onto
// the measured-cost path and be charged the harness's own wall time.
func (s *sink) NextCost(float64) float64 { return s.cost }

// Process implements spc.Processor.
func (s *sink) Process(in sdo.SDO, emit func(sdo.SDO)) error {
	now := time.Now()
	w := s.clk.slotAt(now.Sub(s.clk.start))
	s.n[w]++
	s.due[s.clk.slotAt(in.Origin.Sub(s.clk.start))]++
	s.lat[w] = append(s.lat[w], int32(now.Sub(in.Origin)/100))
	if s.tb == nil || in.Trace == 0 {
		emit(in)
		return nil
	}
	idx := s.tb.open(in.Trace, spanProcess, s.pe, -1, int64(now.Sub(s.base)))
	e0 := int64(time.Since(s.base))
	emit(in)
	e1 := int64(time.Since(s.base))
	s.tb.add(in.Trace, spanEgressEmit, s.pe, idx, e0, e1)
	s.tb.close(idx, int64(time.Since(s.base)))
	return nil
}

func (s *sink) total() int64 {
	var t int64
	for _, v := range s.n {
		t += v
	}
	return t
}

// timedProc wraps an interior PE's processor for the traced run. It
// embeds the Synthetic so NextCost is promoted: a wrapper that hides
// CostModeler silently moves the PE onto the measured-cost path.
type timedProc struct {
	*spc.Synthetic
	pe   int32
	n    int64    // SDOs processed; read after the cluster stopped
	tb   *spanBuf // nil when the wrapper only counts
	base time.Time
}

// Process implements spc.Processor, recording a process span and one
// emit span per emitted SDO for traced SDOs only.
func (p *timedProc) Process(in sdo.SDO, emit func(sdo.SDO)) error {
	p.n++
	if p.tb == nil || in.Trace == 0 {
		return p.Synthetic.Process(in, emit)
	}
	idx := p.tb.open(in.Trace, spanProcess, p.pe, -1, int64(time.Since(p.base)))
	err := p.Synthetic.Process(in, func(out sdo.SDO) {
		e := p.tb.open(in.Trace, spanEmit, p.pe, idx, int64(time.Since(p.base)))
		p.tb.cur = e
		emit(out)
		p.tb.cur = -1
		p.tb.close(e, int64(time.Since(p.base)))
	})
	p.tb.close(idx, int64(time.Since(p.base)))
	return err
}

// tracing is the traced run's shared state: the time base and every
// recording site's buffer.
type tracing struct {
	base   time.Time
	bufs   []*spanBuf
	window int // the window being recorded
}

func (t *tracing) newBuf(capacity int) *spanBuf {
	b := newSpanBuf(capacity)
	t.bufs = append(t.bufs, b)
	return b
}

// hopSource says where an SDO was immediately before PE j's Process was
// entered, so hop waits can be joined after the run.
type hopSource struct {
	kind spanKind // spanInject, spanEmit or spanInjectRemote
	pe   int32    // the PE whose span of that kind precedes this hop
	up   int32    // the upstream PE, or -1 for an ingress PE
}

// deployment is a built, started workload.
type deployment struct {
	inject    func(sdo.SDO)
	pes       int          // PEs in the topology
	admitted  func() int64 // SDOs the ingress PE processed; nil = all injected
	ingress   *spc.Cluster
	clusters  []*spc.Cluster
	sinks     []*sink
	hops      map[int32]hopSource
	linkStats func() transport.LinkStats // nil without a wire
	serveMsgs func() (msgs int64, inRecv time.Duration)
	teardown  func() time.Duration // stops everything, returns Cluster.Stop time
	phases    map[string]float64   // per-layer set-up timings, ms
}

// liveWorkload describes one of the four live workloads.
type liveWorkload struct {
	name      string
	markEvery int     // give every markEvery-th SDO a trace id without recording it; 0 = never
	rate      float64 // offered SDO/s
	dt        float64 // the clusters' Δt, s
	fanout    int     // egress PEs one input reaches
	payload   int     // payload bytes; 0 = header only
	lossless  bool
	build     func(lw *liveWorkload, clk *runClock, tr *tracing, seed int64) (*deployment, error)
}

// newSynthetic builds the stock interior workload for PE j: the bare
// Synthetic in an untraced run, wrapped for timing in a traced one. The
// ingress PE of a fan-out is always wrapped, to count what it admitted.
func newSynthetic(t *graph.Topology, j sdo.PEID, seed int64, tr *tracing, count bool) spc.Processor {
	syn := spc.NewSynthetic(t.PEs[j].Service, sdo.StreamID(1000+int(j)), sim.Substream(seed, uint64(j)+1000))
	if tr != nil {
		return &timedProc{Synthetic: syn, pe: int32(j), tb: tr.newBuf(spanCapacity), base: tr.base}
	}
	if count {
		return &timedProc{Synthetic: syn, pe: int32(j)}
	}
	return syn
}

// spanCapacity bounds one recording site of one window: 1 SDO in 64 of
// at most 100 000/s for 0.8 s, a process span plus an emit span each,
// with room to spare.
const spanCapacity = 1 << 14

func addPlaceholderSource(t *graph.Topology, pe sdo.PEID) error {
	return t.AddSource(graph.Source{Stream: 1, Target: pe, Rate: placeholder, Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}})
}

func newSinkFor(lw *liveWorkload, clk *runClock, tr *tracing, pe sdo.PEID, cost float64) *sink {
	s := newSink(clk, int32(pe), cost, int(lw.rate*clk.win.Seconds()))
	if tr != nil {
		s.tb = tr.newBuf(spanCapacity)
		s.base = tr.base
	}
	return s
}

// buildInproc deploys topo in one cluster. Egress PEs get sinks, every
// other PE a Synthetic.
func buildInproc(lw *liveWorkload, clk *runClock, tr *tracing, seed int64, topo *graph.Topology, cpu []float64) (*deployment, error) {
	return buildInprocWith(lw, clk, tr, seed, topo, cpu, nil)
}

// buildInprocWith is buildInproc with a last word on the cluster's
// configuration (the product's own tracer and telemetry, for the run that
// prices them).
func buildInprocWith(lw *liveWorkload, clk *runClock, tr *tracing, seed int64, topo *graph.Topology, cpu []float64, tune func(*spc.Config)) (*deployment, error) {
	d := &deployment{pes: topo.NumPEs(), phases: map[string]float64{}, hops: map[int32]hopSource{}}
	procs := make(map[sdo.PEID]spc.Processor, topo.NumPEs())
	for j := 0; j < topo.NumPEs(); j++ {
		id := sdo.PEID(j)
		if topo.IsEgress(id) {
			s := newSinkFor(lw, clk, tr, id, topo.PEs[j].Service.T0)
			d.sinks = append(d.sinks, s)
			procs[id] = s
		} else {
			procs[id] = newSynthetic(topo, id, seed, tr, j == 0 && lw.fanout > 1)
		}
		if up := topo.Up(id); len(up) > 0 {
			d.hops[int32(j)] = hopSource{kind: spanEmit, pe: int32(up[0]), up: int32(up[0])}
		} else {
			d.hops[int32(j)] = hopSource{kind: spanInject, pe: int32(j), up: -1}
		}
	}
	cfg := spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, Dt: lw.dt, TimeScale: 1,
		Warmup: 1e-9, Seed: seed, Processors: procs,
	}
	if tune != nil {
		tune(&cfg)
	}
	t0 := time.Now()
	c, err := spc.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	d.phases["spc.new_cluster_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := c.Start(); err != nil {
		return nil, err
	}
	d.phases["spc.start_ms"] = ms(time.Since(t0))
	if tp, ok := procs[0].(*timedProc); ok {
		d.admitted = func() int64 { return tp.n }
	}
	d.ingress = c
	d.clusters = []*spc.Cluster{c}
	d.inject = func(s sdo.SDO) { c.InjectSDO(0, s) }
	d.teardown = func() time.Duration {
		t0 := time.Now()
		c.Stop()
		return time.Since(t0)
	}
	return d, nil
}

// chainTopo is chain_inproc: four PEs on one node, a quarter of it and
// 0.25 µs of virtual cost each, so the virtual budget (1 M SDO/s a PE)
// never binds before the real machine does.
//
// One node, not one per PE: the schedulers of several nodes in one
// process start their Δt tickers within microseconds of each other, and
// whether an SDO then crosses a hop in the same tick round or waits for
// the next depends on which goroutine runs first — on the host's speed of
// the minute. A one-PE-per-node chain measured p50 17 ms or 25 ms and p99
// 31 ms or 39 ms, whole runs at a time. Under one scheduler every PE's
// grant is planned at the same instant from the occupancy of that
// instant, so every hop costs one tick, whatever the machine is doing
// (p50 36 ms, p99 41 ms in every window).
func chainTopo() (*graph.Topology, []float64, error) {
	const n = 4
	topo := graph.New(1, bigBuffer)
	for j := 0; j < n; j++ {
		pe := graph.PE{Service: fixedCost(0.25e-6), Node: 0}
		if j == n-1 {
			pe.Weight = 1
		}
		topo.AddPE(pe)
	}
	for j := 0; j < n-1; j++ {
		if err := topo.Connect(sdo.PEID(j), sdo.PEID(j+1)); err != nil {
			return nil, nil, err
		}
	}
	if err := addPlaceholderSource(topo, 0); err != nil {
		return nil, nil, err
	}
	return topo, []float64{0.25, 0.25, 0.25, 0.25}, nil
}

func buildChain(lw *liveWorkload, clk *runClock, tr *tracing, seed int64) (*deployment, error) {
	topo, cpu, err := chainTopo()
	if err != nil {
		return nil, err
	}
	return buildInproc(lw, clk, tr, seed, topo, cpu)
}

// Fan-out sizing: every branch is offered the full input rate and owns
// branchCPU of node 1, so branch b delivers about branchCPU/cost_b and
// drops the rest — the paper's Fig. 2 max-flow pattern.
//
// Its three nodes tick every 2 ms, not 10. Their tickers start within
// microseconds of each other, and whether a branch's output reaches its
// egress PE before or after node 2 plans that round is a race between
// goroutines that the host's speed of the minute decides, for whole runs
// at a time: at Δt = 10 ms windows had a p50 of 37.5 or of 47.4 ms, one
// tick apart and more than any bound allows. The race cannot be removed
// from outside the program (chain_inproc avoids it with one node, which
// here would let ACES hand the split's and the egress PEs' slack to the
// branches and undo the model check), so the tick is made small against
// the 17-68 ms an SDO queues in a full branch buffer: the same race now
// moves p50 by 2 ms in 49.
const (
	fanoutBuffer = 1024
	branchCPU    = 0.24
	fanoutDt     = 0.002
)

var branchCosts = [4]float64{4e-6, 8e-6, 8e-6, 16e-6}

// fanoutTopo is fanout_overload: split (node 0) → 4 branches (node 1) →
// 4 egress PEs (node 2).
func fanoutTopo() (*graph.Topology, []float64, error) {
	topo := graph.New(3, fanoutBuffer)
	split := topo.AddPE(graph.PE{Service: fixedCost(2e-6), Node: 0})
	cpu := []float64{1}
	var branches, egress []sdo.PEID
	for _, c := range branchCosts {
		branches = append(branches, topo.AddPE(graph.PE{Service: fixedCost(c), Node: 1}))
		cpu = append(cpu, branchCPU)
	}
	for range branchCosts {
		egress = append(egress, topo.AddPE(graph.PE{Service: fixedCost(1e-6), Node: 2, Weight: 1}))
		cpu = append(cpu, 0.25)
	}
	for b := range branches {
		if err := topo.Connect(split, branches[b]); err != nil {
			return nil, nil, err
		}
		if err := topo.Connect(branches[b], egress[b]); err != nil {
			return nil, nil, err
		}
	}
	if err := addPlaceholderSource(topo, split); err != nil {
		return nil, nil, err
	}
	return topo, cpu, nil
}

func buildFanout(lw *liveWorkload, clk *runClock, tr *tracing, seed int64) (*deployment, error) {
	topo, cpu, err := fanoutTopo()
	if err != nil {
		return nil, err
	}
	return buildInproc(lw, clk, tr, seed, topo, cpu)
}

var liveWorkloads = []*liveWorkload{
	{name: "chain_inproc", rate: 100_000, dt: liveDt, fanout: 1, lossless: true, build: buildChain},
	{name: "fanout_overload", rate: 80_000, dt: fanoutDt, fanout: 4, build: buildFanout},
	{name: "wire_small", rate: 80_000, dt: liveDt, fanout: 1, lossless: true, build: buildWire(32)},
	{name: "wire_payload", rate: 50_000, dt: liveDt, fanout: 1, payload: 512, lossless: true, build: buildWire(256)},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveOutcome is everything one generator run produced.
type liveOutcome struct {
	gen      *generator
	d        *deployment
	reports  []metrics.Report
	link     *transport.LinkStats // read before teardown; nil without a wire
	stopTime time.Duration
	drained  bool
	retained float64 // MB held after a forced GC, deployment still up
}

// driveLive runs the generator against a started deployment, waits for
// the buffers to drain, stops everything and collects the reports.
func driveLive(lw *liveWorkload, clk *runClock, tr *tracing, d *deployment) *liveOutcome {
	gen := newGenerator(clk, lw.rate, lw.payload, d.inject)
	if tr != nil {
		gen.tb = tr.newBuf(spanCapacity)
		gen.base = tr.base
		gen.traceBase = uint64(tr.window+1) << 32
	}
	gen.markEvery = int64(lw.markEvery)
	clk.start = time.Now()
	gen.run()
	out := &liveOutcome{gen: gen, d: d}
	out.drained = waitDrained(d, 2*time.Second)
	ends := make([]float64, len(d.clusters))
	for i, c := range d.clusters {
		ends[i] = c.Now()
	}
	if d.linkStats != nil {
		ls := d.linkStats()
		out.link = &ls
	}
	out.retained = retainedMB()
	out.stopTime = d.teardown()
	for i, c := range d.clusters {
		out.reports = append(out.reports, c.Report(ends[i]))
	}
	return out
}

// waitDrained polls until every PE buffer and the uplink outbox are empty
// and the sinks have stopped counting, or the deadline passes.
func waitDrained(d *deployment, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	var last int64 = -1
	for time.Now().Before(deadline) {
		time.Sleep(30 * time.Millisecond)
		busy := false
		for _, c := range d.clusters {
			for j := 0; j < d.pes; j++ {
				if c.BufferLen(sdo.PEID(j)) > 0 {
					busy = true
				}
			}
		}
		if d.linkStats != nil && d.linkStats().QueueLen > 0 {
			busy = true
		}
		var total int64
		for _, s := range d.sinks {
			total += s.total()
		}
		if !busy && total == last {
			return true
		}
		last = total
	}
	return false
}

// conservation is the loss ledger of a live run: every expected delivery
// is delivered, lost to an accounted drop, or unaccounted.
type conservation struct {
	injected, expected int64
	delivered          int64
	inputDrops         int64
	inFlightDrops      int64
	lost               int64 // expected deliveries the accounted drops explain
}

func (c *conservation) add(o conservation) {
	c.injected += o.injected
	c.expected += o.expected
	c.delivered += o.delivered
	c.inputDrops += o.inputDrops
	c.inFlightDrops += o.inFlightDrops
	c.lost += o.lost
}

func (c conservation) unaccounted() int64 { return c.expected - c.delivered - c.lost }

// settle turns raw counters into the ledger. A drop ahead of the fan-out
// point (the split's own input buffer, where the controller occasionally
// throttles the split) loses `fanout` deliveries for one count; a drop
// below it loses one. admitted is how many SDOs the ingress PE processed,
// so injected − admitted is the drop count ahead of the fan-out and the
// rest of the counted drops are below it. Frames a ResilientLink drops
// are already billed as in-flight loss by its OnDrop hook and by the
// emitter, so the link's own FramesDropped is reported but not added
// again.
func settle(injected, admitted int64, fanout int, delivered int64, reports []metrics.Report) conservation {
	c := conservation{injected: injected, expected: injected * int64(fanout), delivered: delivered}
	for _, r := range reports {
		c.inputDrops += r.InputDrops
		c.inFlightDrops += r.InFlightDrops
	}
	ahead := injected - admitted
	c.lost = ahead*int64(fanout) + (c.inputDrops + c.inFlightDrops - ahead)
	return c
}

func sumInt64(xs []int64) int64 {
	var t int64
	for _, v := range xs {
		t += v
	}
	return t
}
