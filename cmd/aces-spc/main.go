// Command aces-spc runs the live runtime — the reproduction's stand-in
// for IBM's Stream Processing Core. In local mode it deploys a topology
// in-process (goroutine PEs, Δt node schedulers) and prints the run
// report. The send/recv modes demonstrate the TCP transport: a receiver
// accepts framed SDOs and reports throughput; a sender streams synthetic
// SDOs at a target rate.
//
// Usage:
//
//	aces-spc -mode local -pes 60 -nodes 10 -policy aces -duration 20
//	aces-spc -mode recv -listen :7070
//	aces-spc -mode send -connect localhost:7070 -rate 5000 -count 20000
//
// Node mode runs ONE PARTITION of a shared topology as its own process —
// a genuinely distributed ACES deployment. One side listens, the other
// dials; both need the same topology JSON (from aces-topo -solve):
//
//	aces-spc -mode node -topo t.json -local-nodes 0,1 -listen :7071 -duration 20
//	aces-spc -mode node -topo t.json -local-nodes 2,3 -connect host:7071 -duration 20
//
// Both local and node modes can close the adaptive loop: -retarget-every
// re-solves the tier-1 targets from online-calibrated rate models and
// applies them hitlessly (node mode also disseminates each epoch to the
// peer):
//
//	aces-spc -mode local -pes 60 -nodes 10 -retarget-every 2 -duration 30
//
// With -elastic the loop also picks per-PE replica counts from the
// calibrated model (PEs need replica slots: max_replicas in the topology,
// or grant them everywhere with -replicas-max):
//
//	aces-spc -mode local -retarget-every 2 -elastic -replicas-max 3
//
// The control plane itself can be made fault tolerant: -standby-rank
// arms a partition as a ranked standby controller that claims the next
// term and resumes the adaptive loop when the incumbent's target frames
// go silent, and -safety-after enables the stale-target safety mode (a
// partition cut off from every controller blends its targets toward the
// declared-model allocation instead of trusting stale calibration
// forever):
//
//	aces-spc -mode node -topo t.json -local-nodes 2,3 -connect host:7071 \
//	  -retarget-every 2 -standby-rank 0 -safety-after 10
//
// Local and node modes optionally expose live inspection endpoints
// (/debug/report, /debug/telemetry, /debug/traces, /debug/graph,
// /debug/health) and sampled per-SDO tracing:
//
//	aces-spc -mode local -debug-addr 127.0.0.1:7099 -trace-every 8 -trace-out spans.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"aces"
	"aces/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "aces-spc: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aces-spc", flag.ContinueOnError)
	var (
		mode       = fs.String("mode", "local", "local | recv | send")
		pes        = fs.Int("pes", 60, "PEs when generating (local)")
		nodes      = fs.Int("nodes", 10, "nodes when generating (local)")
		seed       = fs.Int64("seed", 1, "seed")
		polName    = fs.String("policy", "aces", "policy (local)")
		duration   = fs.Float64("duration", 20, "virtual seconds (local)")
		scale      = fs.Float64("scale", 10, "time acceleration (local; 1 = real time)")
		topoFile   = fs.String("topo", "", "topology JSON from aces-topo (local)")
		listen     = fs.String("listen", "", "listen address (recv/node)")
		connect    = fs.String("connect", "", "peer address (send)")
		connect2   = fs.String("peer", "", "peer address (node mode dial side)")
		localNodes = fs.String("local-nodes", "", "comma-separated node ids hosted by this process (node mode)")
		rate       = fs.Float64("rate", 1000, "SDOs per second (send)")
		count      = fs.Int("count", 10000, "SDOs to send (send)")
		upQueue    = fs.Int("uplink-queue", 1024, "uplink outbox capacity in frames (node mode)")
		upTimeout  = fs.Duration("uplink-timeout", time.Second, "uplink per-frame write deadline (node mode)")
		batchMax   = fs.Int("batch-max", 32, "uplink batch size in SDOs; 1 disables batched framing (node mode)")
		batchLing  = fs.Duration("batch-linger", 0, "wait up to this long to fill a non-full batch; 0 = flush-on-idle only (node mode)")
		debugAddr  = fs.String("debug-addr", "", "serve /debug/* inspection endpoints on this address (local/node; \":0\" picks a port)")
		traceEvery = fs.Int("trace-every", 0, "trace 1-in-N ingress SDOs (0 = off unless -debug-addr/-trace-out, then 64)")
		traceBuf   = fs.Int("trace-buf", 0, "span ring capacity (0 = default 4096)")
		traceOut   = fs.String("trace-out", "", "write retained spans as JSONL to this file at exit")
		hbEvery    = fs.Float64("heartbeat-every", 0.5, "membership beacon period in virtual seconds (node mode; 0 disables heartbeats)")
		rtEvery    = fs.Float64("retarget-every", 0, "re-solve tier-1 targets from calibrated rate models every this many virtual seconds (local/node; 0 = off)")
		rtElastic  = fs.Bool("elastic", false, "let the adaptive loop also choose per-PE replica counts (local/node; needs -retarget-every and replica slots from the topology or -replicas-max)")
		repMax     = fs.Int("replicas-max", 0, "give every non-join PE this many replica slots, overriding the topology's max_replicas (local/node; unpinned slots place round-robin across nodes; 0 = as declared)")
		sbRank     = fs.Int("standby-rank", -1, "arm this process as a ranked standby controller: after rank-staggered target silence it claims the next term and resumes the adaptive loop (local/node; needs -retarget-every; -1 = off)")
		sbSilence  = fs.Float64("standby-silence", 0, "virtual seconds of controller silence before this standby's base claim deadline (0 = 4×retarget-every)")
		safAfter   = fs.Float64("safety-after", 0, "stale-target safety mode: with no fresh target epoch for this many virtual seconds, blend targets a bounded step per tick toward the declared-model allocation (local/node; 0 = off)")
		safStep    = fs.Float64("safety-step", 0, "safety-mode blend increment per scheduler tick in (0, 1] (0 = default 0.05)")
		shards     = fs.Int("sched-shards", 0, "Δt scheduler shards per node (local/node; 0 = auto: one per core, at least 16 PE slots per shard)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ob := obsOpts{debugAddr: *debugAddr, traceEvery: *traceEvery, traceBuf: *traceBuf, traceOut: *traceOut}
	el := elasticOpts{elastic: *rtElastic, replicasMax: *repMax}
	co := ctrlOpts{standbyRank: *sbRank, standbySilence: *sbSilence, safetyAfter: *safAfter, safetyStep: *safStep}
	if el.elastic && *rtEvery <= 0 {
		return fmt.Errorf("-elastic needs the adaptive loop: set -retarget-every")
	}
	if co.standbyRank >= 0 && *rtEvery <= 0 {
		return fmt.Errorf("-standby-rank needs the adaptive loop: set -retarget-every")
	}
	switch *mode {
	case "local":
		return runLocal(*topoFile, *pes, *nodes, *seed, *polName, *duration, *scale, *rtEvery, *shards, el, co, ob)
	case "node":
		up := uplinkOpts{queue: *upQueue, timeout: *upTimeout, batchMax: *batchMax, batchLinger: *batchLing}
		return runNode(*topoFile, *localNodes, *listen, *connect2, *seed, *polName, *duration, *scale, *hbEvery, *rtEvery, *shards, up, el, co, ob)
	case "recv":
		addr := *listen
		if addr == "" {
			addr = ":7070"
		}
		return runRecv(addr)
	case "send":
		addr := *connect
		if addr == "" {
			addr = "localhost:7070"
		}
		return runSend(addr, *rate, *count)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// elasticOpts bundles the replication flags shared by local and node
// modes.
type elasticOpts struct {
	elastic     bool
	replicasMax int
}

// apply rewrites the topology's replica grants when -replicas-max is set:
// every non-join PE gets exactly that many slots (1 = replication off),
// placed by the topology's usual pinned/round-robin rule. Join PEs keep a
// single slot — per-upstream pairing is not partitionable by key-hash.
func (e elasticOpts) apply(topo *aces.Topology) {
	if e.replicasMax <= 0 {
		return
	}
	for j := range topo.PEs {
		if topo.PEs[j].Join {
			continue
		}
		topo.PEs[j].MaxReplicas = e.replicasMax
	}
}

// startRetarget turns the adaptive loop on (plain or elastic) and
// announces it.
func (e elasticOpts) startRetarget(cl *aces.Cluster, rtEvery float64) error {
	if rtEvery <= 0 {
		return nil
	}
	if err := cl.StartRetarget(aces.RetargetConfig{Every: rtEvery, Elastic: e.elastic}); err != nil {
		return err
	}
	if e.elastic {
		fmt.Printf("adaptive loop on: elastic re-solve (targets + replica counts) every %gs virtual\n", rtEvery)
	} else {
		fmt.Printf("adaptive loop on: re-solving calibrated targets every %gs virtual\n", rtEvery)
	}
	return nil
}

// ctrlOpts bundles the control-plane resilience flags shared by local
// and node modes.
type ctrlOpts struct {
	standbyRank    int
	standbySilence float64
	safetyAfter    float64
	safetyStep     float64
}

// safety returns the ClusterConfig.Safety block the flags ask for (nil
// when the mode is off).
func (co ctrlOpts) safety() *aces.SafetyConfig {
	if co.safetyAfter <= 0 {
		return nil
	}
	return &aces.SafetyConfig{After: co.safetyAfter, Step: co.safetyStep}
}

// start arms the adaptive loop: the active controller by default, or a
// ranked standby (silence-watching, term-claiming) when -standby-rank is
// set — the standby only starts retargeting after a successful claim.
func (co ctrlOpts) start(cl *aces.Cluster, rtEvery float64, el elasticOpts) error {
	if co.standbyRank < 0 {
		return el.startRetarget(cl, rtEvery)
	}
	if rtEvery <= 0 {
		return nil
	}
	silence := co.standbySilence
	if silence <= 0 {
		silence = 4 * rtEvery
	}
	err := cl.StartFailover(aces.FailoverConfig{
		Rank: co.standbyRank, SilenceAfter: silence,
		Retarget: aces.RetargetConfig{Every: rtEvery, Elastic: el.elastic},
		OnClaim: func(term uint64) {
			fmt.Printf("standby claimed controller term %d — resuming the adaptive loop\n", term)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("standby controller armed: rank %d, claiming after %.1fs of target silence\n",
		co.standbyRank, silence)
	return nil
}

// report prints the control-plane outcome once the run is over.
func (co ctrlOpts) report(rep aces.Report) {
	if rep.TargetTerm > 0 {
		fmt.Printf("controller term     %d\n", rep.TargetTerm)
	}
	if rep.FencedFrames > 0 {
		fmt.Printf("fenced frames       %d (deposed-term targets rejected)\n", rep.FencedFrames)
	}
}

// report prints the replication outcome once the run is over.
func (e elasticOpts) report(peak int) {
	if !e.elastic && e.replicasMax <= 0 {
		return
	}
	grant := "as declared"
	if e.replicasMax > 0 {
		grant = fmt.Sprintf("cap %d", e.replicasMax)
	}
	fmt.Printf("replicas            peak %d active slots on one PE (%s)\n", peak, grant)
}

// obsOpts bundles the observability flags shared by local and node modes.
type obsOpts struct {
	debugAddr  string
	traceEvery int
	traceBuf   int
	traceOut   string
}

// build constructs the tracer and telemetry registry the flags ask for
// (nil when observability is off — the data path then pays only nil
// checks). The salt keeps trace IDs distinct across partition processes.
func (o obsOpts) build(salt int64) (*aces.Tracer, *aces.TelemetryRegistry, *aces.MemoryTelemetrySink) {
	var tr *aces.Tracer
	if o.traceEvery > 0 || o.debugAddr != "" || o.traceOut != "" {
		every := o.traceEvery
		if every <= 0 {
			every = 64
		}
		tr = aces.NewTracer(every, o.traceBuf, salt)
	}
	var reg *aces.TelemetryRegistry
	var sink *aces.MemoryTelemetrySink
	if o.debugAddr != "" {
		sink = aces.NewMemoryTelemetrySink(0)
		reg = aces.NewTelemetryRegistry(sink)
	}
	return tr, reg, sink
}

// serve starts the /debug/* endpoint when requested; the returned cleanup
// also writes the -trace-out JSONL export. Call it after the cluster is
// built and defer the cleanup.
func (o obsOpts) serve(cl *aces.Cluster, topo *aces.Topology, title string,
	tr *aces.Tracer, reg *aces.TelemetryRegistry, sink *aces.MemoryTelemetrySink) (func(), error) {
	var srv *aces.DebugServer
	if o.debugAddr != "" {
		var err error
		srv, err = aces.ServeDebug(o.debugAddr, aces.DebugOptions{
			Report:   func() any { return cl.Report(cl.Now()) },
			Registry: reg,
			Sink:     sink,
			Tracer:   tr,
			GraphDOT: func(w io.Writer) error { return topo.WriteDOT(w, title) },
			Health:   func() any { return cl.Health() },
		})
		if err != nil {
			return nil, err
		}
		fmt.Printf("debug endpoint on http://%s/debug/\n", srv.Addr())
	}
	return func() {
		if srv != nil {
			srv.Close()
		}
		if o.traceOut != "" && tr != nil {
			f, err := os.Create(o.traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aces-spc: trace export: %v\n", err)
				return
			}
			defer f.Close()
			if err := tr.ExportJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "aces-spc: trace export: %v\n", err)
				return
			}
			fmt.Printf("exported trace spans to %s\n", o.traceOut)
		}
	}, nil
}

func runLocal(topoFile string, pes, nodes int, seed int64, polName string, duration, scale, rtEvery float64, schedShards int, el elasticOpts, co ctrlOpts, ob obsOpts) error {
	pol, err := aces.ParsePolicy(polName)
	if err != nil {
		return err
	}
	var topo *aces.Topology
	var cpu []float64
	if topoFile != "" {
		data, err := os.ReadFile(topoFile)
		if err != nil {
			return err
		}
		var doc struct {
			Topology *aces.Topology `json:"topology"`
			CPU      []float64      `json:"cpu,omitempty"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return err
		}
		if doc.Topology == nil {
			return fmt.Errorf("no topology in %s", topoFile)
		}
		if err := doc.Topology.Rebuild(); err != nil {
			return err
		}
		topo, cpu = doc.Topology, doc.CPU
	} else {
		topo, err = aces.Generate(aces.DefaultGenConfig(pes, nodes, seed))
		if err != nil {
			return err
		}
	}
	el.apply(topo)
	if cpu == nil {
		alloc, err := aces.Optimize(topo, aces.OptimizeConfig{
			MaxIters: 800, Utility: aces.LinearUtility{}, MinShare: 0.02,
		})
		if err != nil {
			return err
		}
		cpu = alloc.CPU
	}
	tr, reg, sink := ob.build(seed)
	cl, err := aces.NewCluster(aces.ClusterConfig{
		Topo: topo, Policy: pol, CPU: cpu, TimeScale: scale, Warmup: duration / 5, Seed: seed,
		Tracer: tr, Telemetry: reg, Safety: co.safety(), SchedShards: schedShards,
	})
	if err != nil {
		return err
	}
	cleanup, err := ob.serve(cl, topo, fmt.Sprintf("aces local deployment (%s)", pol), tr, reg, sink)
	if err != nil {
		return err
	}
	defer cleanup()
	if err := co.start(cl, rtEvery, el); err != nil {
		return err
	}
	fmt.Printf("running %d PEs on %d nodes under %s for %.0fs virtual (%.0f× wall speed)...\n",
		topo.NumPEs(), topo.NumNodes, pol, duration, scale)
	rep, err := cl.Run(duration)
	if err != nil {
		return err
	}
	fmt.Printf("weighted throughput %.2f /s\n", rep.WeightedThroughput)
	fmt.Printf("latency mean ± σ    %.1f ± %.1f ms (p95 %.1f)\n", rep.MeanLatency*1e3, rep.StdLatency*1e3, rep.P95*1e3)
	fmt.Printf("drops               input %d, in-flight %d\n", rep.InputDrops, rep.InFlightDrops)
	fmt.Printf("buffer occupancy    %.1f ± %.1f\n", rep.MeanBufferOccupancy, rep.StdBufferOccupancy)
	if rep.Retargets > 0 {
		fmt.Printf("retargets           %d (final epoch %d)\n", rep.Retargets, rep.TargetEpoch)
	}
	co.report(rep)
	el.report(rep.ActiveReplicas)
	return nil
}

func runRecv(addr string) error {
	l, err := transport.Listen(addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("listening on %s\n", l.Addr())
	conn, err := l.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	var n int
	var bytes int
	start := time.Now()
	for {
		msg, err := conn.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if msg.Kind == transport.KindData {
			n++
			bytes += msg.SDO.Bytes
		}
	}
	el := time.Since(start).Seconds()
	fmt.Printf("received %d SDOs (%d bytes) in %.2fs — %.0f SDO/s\n", n, bytes, el, float64(n)/el)
	return nil
}

func runSend(addr string, rate float64, count int) error {
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	next := start
	for i := 0; i < count; i++ {
		s := aces.SDO{Stream: 1, Seq: uint64(i), Origin: time.Now(), Bytes: 64, Payload: make([]byte, 64)}
		if err := conn.SendSDO(s); err != nil {
			return err
		}
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	el := time.Since(start).Seconds()
	fmt.Printf("sent %d SDOs in %.2fs — %.0f SDO/s\n", count, el, float64(count)/el)
	return nil
}

// uplinkOpts bundles the node-mode uplink flags.
type uplinkOpts struct {
	queue       int
	timeout     time.Duration
	batchMax    int
	batchLinger time.Duration
}

// runNode hosts one partition of a shared topology, bridging to exactly
// one peer process (listen XOR dial) through a resilient uplink: sends
// never block the PE emit path or the Δt scheduler, and a stalled or
// severed peer triggers automatic reconnection while the local partition
// keeps running.
func runNode(topoFile, localNodes, listenAddr, peerAddr string, seed int64, polName string, duration, scale, hbEvery, rtEvery float64, schedShards int, up uplinkOpts, el elasticOpts, co ctrlOpts, ob obsOpts) error {
	if topoFile == "" {
		return fmt.Errorf("node mode requires -topo (shared across all partitions)")
	}
	if localNodes == "" {
		return fmt.Errorf("node mode requires -local-nodes")
	}
	if (listenAddr == "") == (peerAddr == "") {
		return fmt.Errorf("node mode needs exactly one of -listen or -peer")
	}
	pol, err := aces.ParsePolicy(polName)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(topoFile)
	if err != nil {
		return err
	}
	var doc struct {
		Topology *aces.Topology `json:"topology"`
		CPU      []float64      `json:"cpu,omitempty"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Topology == nil || doc.CPU == nil {
		return fmt.Errorf("node mode requires a topology with tier-1 targets (aces-topo -solve)")
	}
	if err := doc.Topology.Rebuild(); err != nil {
		return err
	}
	// Every partition must apply the same override or their replica-slot
	// layouts disagree (same rule as sharing the topology JSON itself).
	el.apply(doc.Topology)
	var nodes []aces.NodeID
	for _, part := range strings.Split(localNodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -local-nodes entry %q: %w", part, err)
		}
		nodes = append(nodes, aces.NodeID(n))
	}

	// The DialFunc abstracts connection establishment for both roles: the
	// listening side re-accepts after a sever, the dialing side redials
	// (with backoff, so a peer that is not up yet is simply waited for).
	var dial aces.DialFunc
	var lis *aces.Listener
	if listenAddr != "" {
		lis, err = aces.Listen(listenAddr)
		if err != nil {
			return err
		}
		defer lis.Close()
		fmt.Printf("waiting for peer on %s...\n", lis.Addr())
		dial = func() (*aces.Conn, error) { return lis.Accept() }
	} else {
		dial = func() (*aces.Conn, error) { return aces.Dial(peerAddr, 2*time.Second) }
	}
	link := aces.NewResilientLink(dial, aces.ResilientOptions{
		QueueSize: up.queue, WriteTimeout: up.timeout,
		BatchMax: up.batchMax, BatchLinger: up.batchLinger,
	})
	defer link.Close()

	// Salt the tracer with the partition's first node so the two sides of
	// a bridge never mint colliding trace IDs (stitching is by ID).
	tr, reg, sink := ob.build(seed*1000003 + int64(nodes[0]) + 1)
	var hc *aces.HealthConfig
	if hbEvery > 0 {
		hc = &aces.HealthConfig{Every: hbEvery}
	}
	cl, err := aces.NewCluster(aces.ClusterConfig{
		Topo: doc.Topology, Policy: pol, CPU: doc.CPU,
		TimeScale: scale, Warmup: duration / 5, Seed: seed,
		LocalNodes: nodes, Uplink: link, Health: hc,
		Tracer: tr, Telemetry: reg, Safety: co.safety(), SchedShards: schedShards,
	})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("aces partition hosting nodes %v (%s)", nodes, pol)
	cleanup, err := ob.serve(cl, doc.Topology, title, tr, reg, sink)
	if err != nil {
		return err
	}
	defer cleanup()
	serveDone := make(chan error, 1)
	go func() { serveDone <- link.Serve(cl) }()

	// The adaptive loop calibrates local PEs only, so every partition may
	// run it; epoch ordering keeps concurrent re-solves consistent. New
	// epochs ride the same uplink as heartbeats.
	// With -standby-rank this partition instead watches the incumbent and
	// claims the next controller term on silence.
	if err := co.start(cl, rtEvery, el); err != nil {
		return err
	}
	fmt.Printf("hosting nodes %v of %d-PE topology under %s for %.0fs virtual...\n",
		nodes, doc.Topology.NumPEs(), pol, duration)
	rep, err := cl.Run(duration)
	if err != nil {
		return err
	}
	// Unblock a pending Accept before closing the link (its manager
	// goroutine may be waiting inside the DialFunc).
	if lis != nil {
		lis.Close()
	}
	link.Close()
	<-serveDone
	fmt.Printf("local weighted throughput %.2f /s (egress PEs hosted here only)\n", rep.WeightedThroughput)
	fmt.Printf("latency %.1f ms (p95 %.1f), drops input %d in-flight %d\n",
		rep.MeanLatency*1e3, rep.P95*1e3, rep.InputDrops, rep.InFlightDrops)
	for _, ls := range rep.Links {
		fmt.Printf("uplink              sent %d, dropped %d, reconnects %d, queue %d/%d\n",
			ls.FramesSent, ls.FramesDropped, ls.Reconnects, ls.QueueLen, ls.QueueCap)
	}
	if rep.Retargets > 0 {
		fmt.Printf("retargets           %d (final epoch %d)\n", rep.Retargets, rep.TargetEpoch)
	}
	co.report(rep)
	el.report(rep.ActiveReplicas)
	return nil
}
