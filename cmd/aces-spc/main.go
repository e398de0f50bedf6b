// Command aces-spc runs the live runtime — the reproduction's stand-in
// for IBM's Stream Processing Core. In local mode it deploys a topology
// (generated, or read from aces-topo JSON) in-process — goroutine PEs
// under Δt node schedulers — and prints the run report:
//
//	aces-spc -mode local -pes 60 -nodes 10 -policy aces -duration 20
//
// Node mode runs ONE PARTITION of a shared topology as its own process —
// a genuinely distributed ACES deployment. One side listens, the other
// dials; both need the same topology JSON (from aces-topo -solve):
//
//	aces-spc -mode node -topo t.json -local-nodes 0,1 -listen :7071 -duration 20
//	aces-spc -mode node -topo t.json -local-nodes 2,3 -peer host:7071 -duration 20
//
// The uplink between partitions batches up to 32 SDOs per frame and
// flushes whenever its outbox runs idle; each partition beacons a
// heartbeat every 0.5 virtual seconds.
//
// Both local and node modes can close the adaptive loop: -retarget-every
// re-solves the tier-1 targets from online-calibrated rate models and
// applies them hitlessly (node mode also disseminates each epoch to the
// peer):
//
//	aces-spc -mode local -pes 60 -nodes 10 -retarget-every 2 -duration 30
//
// When the topology declares replica slots (max_replicas, or
// -replicas-max granting them everywhere) the loop also picks per-PE
// replica counts from the calibrated model:
//
//	aces-spc -mode local -retarget-every 2 -replicas-max 3
//
// The control plane itself can be made fault tolerant: -standby-rank
// arms a partition as a ranked standby controller that claims the next
// term and resumes the adaptive loop when the incumbent's target frames
// have been silent for four retarget periods, and -safety-after enables
// the stale-target safety mode (a partition cut off from every controller
// blends its targets toward the declared-model allocation instead of
// trusting stale calibration forever):
//
//	aces-spc -mode node -topo t.json -local-nodes 2,3 -peer host:7071 \
//	  -retarget-every 2 -standby-rank 0 -safety-after 10
//
// Local and node modes optionally expose live inspection endpoints
// (/debug/report, /debug/telemetry, /debug/traces, /debug/graph,
// /debug/health) and sampled per-SDO tracing:
//
//	aces-spc -mode local -debug-addr 127.0.0.1:7099 -trace-every 8 -trace-out spans.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"aces"
	"aces/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "aces-spc: %v\n", err)
		os.Exit(1)
	}
}

// options is a parsed aces-spc command line.
type options struct {
	mode, topoFile           string
	pes, nodes               int
	seed                     int64
	pol                      aces.Policy
	duration, scale          float64
	listen, peer             string
	localNodes               []aces.NodeID
	debugAddr, traceOut      string
	traceEvery               int
	rtEvery, safetyAfter     float64
	replicasMax, standbyRank int
}

// newFlagSet registers every aces-spc flag, each bound to a field of the
// returned options.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("aces-spc", flag.ContinueOnError)
	o := &options{pol: aces.PolicyACES}
	fs.StringVar(&o.mode, "mode", "local", "local | node")
	fs.IntVar(&o.pes, "pes", 60, "PEs when generating (local)")
	fs.IntVar(&o.nodes, "nodes", 10, "nodes when generating (local)")
	fs.Int64Var(&o.seed, "seed", 1, "seed")
	fs.Func("policy", "policy: aces | udp | lockstep | loadshed | aces-minflow | aces-strictcpu (default aces)", func(s string) (err error) {
		o.pol, err = aces.ParsePolicy(s)
		return err
	})
	fs.Float64Var(&o.duration, "duration", 20, "virtual seconds")
	fs.Float64Var(&o.scale, "scale", 10, "time acceleration (1 = real time)")
	fs.StringVar(&o.topoFile, "topo", "", "topology JSON from aces-topo (local: optional, default generate; node: required, with the tier-1 targets of -solve)")
	fs.StringVar(&o.listen, "listen", "", "wait for the peer partition on this address (node)")
	fs.StringVar(&o.peer, "peer", "", "dial the peer partition at this address (node)")
	fs.Func("local-nodes", "comma-separated node ids hosted by this process (node)", func(s string) error {
		o.localNodes = nil
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad entry %q: %w", part, err)
			}
			o.localNodes = append(o.localNodes, aces.NodeID(n))
		}
		return nil
	})
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /debug/* inspection endpoints on this address (\":0\" picks a port)")
	fs.IntVar(&o.traceEvery, "trace-every", 0, "trace 1-in-N ingress SDOs (0 = off unless -debug-addr/-trace-out, then 64)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write retained spans as JSONL to this file at exit")
	fs.Float64Var(&o.rtEvery, "retarget-every", 0, "re-solve tier-1 targets from calibrated rate models every this many virtual seconds (0 = off)")
	fs.IntVar(&o.replicasMax, "replicas-max", 0, "give every non-join PE this many replica slots, overriding the topology's max_replicas; with -retarget-every the loop picks how many are active (unpinned slots place round-robin across nodes; 0 = as declared)")
	fs.IntVar(&o.standbyRank, "standby-rank", -1, "arm this process as a ranked standby controller: after 4×retarget-every of target silence (staggered by rank) it claims the next term and resumes the adaptive loop (needs -retarget-every; -1 = off)")
	fs.Float64Var(&o.safetyAfter, "safety-after", 0, "stale-target safety mode: with no fresh target epoch for this many virtual seconds, blend targets a bounded step per tick toward the declared-model allocation (0 = off)")
	return fs, o
}

// parseFlags parses args and applies the cross-flag rules, so a bad
// command line fails before anything is read, bound or run.
func parseFlags(args []string) (*options, error) {
	fs, o := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.standbyRank >= 0 && o.rtEvery <= 0 {
		return nil, fmt.Errorf("-standby-rank needs the adaptive loop: set -retarget-every")
	}
	switch o.mode {
	case "local":
	case "node":
		if o.topoFile == "" {
			return nil, fmt.Errorf("node mode requires -topo (shared across all partitions)")
		}
		if len(o.localNodes) == 0 {
			return nil, fmt.Errorf("node mode requires -local-nodes")
		}
		if (o.listen == "") == (o.peer == "") {
			return nil, fmt.Errorf("node mode needs exactly one of -listen or -peer")
		}
	default:
		return nil, fmt.Errorf("unknown mode %q (valid: local, node)", o.mode)
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.mode == "node" {
		return o.runNode()
	}
	return o.runLocal()
}

// applyReplicas rewrites the topology's replica grants when -replicas-max
// is set: every non-join PE gets exactly that many slots (1 = replication
// off), placed by the topology's usual pinned/round-robin rule. Join PEs
// keep a single slot — per-upstream pairing is not partitionable by
// key-hash.
func (o *options) applyReplicas(topo *aces.Topology) {
	for j := range topo.PEs {
		if o.replicasMax > 0 && !topo.PEs[j].Join {
			topo.PEs[j].MaxReplicas = o.replicasMax
		}
	}
}

// startControl arms the adaptive loop: the active controller by default,
// or a ranked standby (silence-watching, term-claiming) when
// -standby-rank is set — the standby only starts retargeting after a
// successful claim. Every partition of a node-mode deployment may run
// the loop: it calibrates local PEs only, epoch ordering keeps concurrent
// re-solves consistent, and new epochs ride the uplink with the
// heartbeats.
func (o *options) startControl(cl *aces.Cluster) error {
	if o.rtEvery <= 0 {
		return nil
	}
	rt := aces.RetargetConfig{Every: o.rtEvery}
	if o.standbyRank < 0 {
		if err := cl.StartRetarget(rt); err != nil {
			return err
		}
		fmt.Printf("adaptive loop on: re-solving calibrated targets every %gs virtual\n", o.rtEvery)
		return nil
	}
	// The incumbent emits a target frame every period even when a
	// re-solve fails, so four periods of silence mean it is gone.
	silence := 4 * o.rtEvery
	err := cl.StartFailover(aces.FailoverConfig{
		Rank: o.standbyRank, SilenceAfter: silence, Retarget: rt,
		OnClaim: func(term uint64) {
			fmt.Printf("standby claimed controller term %d — resuming the adaptive loop\n", term)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("standby controller armed: rank %d, claiming after %.1fs of target silence\n",
		o.standbyRank, silence)
	return nil
}

// reportControl prints the adaptive loop's outcome once the run is over:
// epochs, the controller term, fenced frames and replication.
func (o *options) reportControl(rep aces.Report) {
	if rep.Retargets > 0 {
		fmt.Printf("retargets           %d (final epoch %d)\n", rep.Retargets, rep.TargetEpoch)
	}
	if rep.TargetTerm > 0 {
		fmt.Printf("controller term     %d\n", rep.TargetTerm)
	}
	if rep.FencedFrames > 0 {
		fmt.Printf("fenced frames       %d (deposed-term targets rejected)\n", rep.FencedFrames)
	}
	if o.replicasMax <= 0 && rep.ActiveReplicas <= 1 {
		return
	}
	grant := "as declared"
	if o.replicasMax > 0 {
		grant = fmt.Sprintf("cap %d", o.replicasMax)
	}
	fmt.Printf("replicas            peak %d active slots on one PE (%s)\n", rep.ActiveReplicas, grant)
}

// deploy builds the cluster cfg describes, completed with what both
// modes take from the flags (policy, clock, seed, safety mode, tracing,
// telemetry); serves /debug/* when asked; hands the cluster to started;
// arms the adaptive loop; and runs it for -duration. salt keeps trace IDs
// distinct across partition processes.
func (o *options) deploy(cfg aces.ClusterConfig, title string, salt int64, started func(*aces.Cluster)) (aces.Report, error) {
	cfg.Policy, cfg.TimeScale, cfg.Warmup, cfg.Seed = o.pol, o.scale, o.duration/5, o.seed
	if o.safetyAfter > 0 {
		cfg.Safety = &aces.SafetyConfig{After: o.safetyAfter}
	}
	// With observability off the data path pays only nil checks.
	if o.traceEvery > 0 || o.debugAddr != "" || o.traceOut != "" {
		every := o.traceEvery
		if every <= 0 {
			every = 64
		}
		cfg.Tracer = aces.NewTracer(every, 0, salt)
	}
	var sink *aces.MemoryTelemetrySink
	if o.debugAddr != "" {
		sink = aces.NewMemoryTelemetrySink(0)
		cfg.Telemetry = aces.NewTelemetryRegistry(sink)
	}
	cl, err := aces.NewCluster(cfg)
	if err != nil {
		return aces.Report{}, err
	}
	if o.debugAddr != "" {
		srv, err := aces.ServeDebug(o.debugAddr, aces.DebugOptions{
			Report:   func() any { return cl.Report(cl.Now()) },
			Registry: cfg.Telemetry,
			Sink:     sink,
			Tracer:   cfg.Tracer,
			GraphDOT: func(w io.Writer) error { return cfg.Topo.WriteDOT(w, title) },
			Health:   func() any { return cl.Health() },
		})
		if err != nil {
			return aces.Report{}, err
		}
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s/debug/\n", srv.Addr())
	}
	if o.traceOut != "" {
		defer o.exportTraces(cfg.Tracer)
	}
	if started != nil {
		started(cl)
	}
	if err := o.startControl(cl); err != nil {
		return aces.Report{}, err
	}
	return cl.Run(o.duration)
}

// exportTraces writes the retained spans to -trace-out as JSONL.
func (o *options) exportTraces(tr *aces.Tracer) {
	f, err := os.Create(o.traceOut)
	if err == nil {
		err = tr.ExportJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aces-spc: trace export: %v\n", err)
		return
	}
	fmt.Printf("exported trace spans to %s\n", o.traceOut)
}

func (o *options) runLocal() error {
	var topo *aces.Topology
	var cpu []float64
	var err error
	if o.topoFile != "" {
		topo, cpu, err = graph.ReadFile(o.topoFile)
	} else {
		topo, err = aces.Generate(aces.DefaultGenConfig(o.pes, o.nodes, o.seed))
	}
	if err != nil {
		return err
	}
	o.applyReplicas(topo)
	if cpu == nil {
		alloc, err := aces.Optimize(topo, aces.OptimizeConfig{
			MaxIters: 800, Utility: aces.LinearUtility{}, MinShare: 0.02,
		})
		if err != nil {
			return err
		}
		cpu = alloc.CPU
	}
	fmt.Printf("running %d PEs on %d nodes under %s for %.0fs virtual (%.0f× wall speed)...\n",
		topo.NumPEs(), topo.NumNodes, o.pol, o.duration, o.scale)
	rep, err := o.deploy(aces.ClusterConfig{Topo: topo, CPU: cpu},
		fmt.Sprintf("aces local deployment (%s)", o.pol), o.seed, nil)
	if err != nil {
		return err
	}
	fmt.Printf("weighted throughput %.2f /s\n", rep.WeightedThroughput)
	fmt.Printf("latency mean ± σ    %.1f ± %.1f ms (p95 %.1f)\n", rep.MeanLatency*1e3, rep.StdLatency*1e3, rep.P95*1e3)
	fmt.Printf("drops               input %d, in-flight %d\n", rep.InputDrops, rep.InFlightDrops)
	fmt.Printf("buffer occupancy    %.1f ± %.1f\n", rep.MeanBufferOccupancy, rep.StdBufferOccupancy)
	o.reportControl(rep)
	return nil
}

// runNode hosts one partition of a shared topology, bridging to exactly
// one peer process (listen XOR dial) through a resilient uplink: sends
// never block the PE emit path or the Δt scheduler, and a stalled or
// severed peer triggers automatic reconnection while the local partition
// keeps running.
func (o *options) runNode() error {
	topo, cpu, err := graph.ReadFile(o.topoFile)
	if err != nil {
		return err
	}
	if cpu == nil {
		return fmt.Errorf("node mode requires a topology with tier-1 targets (aces-topo -solve)")
	}
	// Every partition must apply the same override or their replica-slot
	// layouts disagree (same rule as sharing the topology JSON itself).
	o.applyReplicas(topo)

	// The DialFunc abstracts connection establishment for both roles: the
	// listening side re-accepts after a sever, the dialing side redials
	// (with backoff, so a peer that is not up yet is simply waited for).
	var dial aces.DialFunc
	var lis *aces.Listener
	if o.listen != "" {
		lis, err = aces.Listen(o.listen)
		if err != nil {
			return err
		}
		defer lis.Close()
		fmt.Printf("waiting for peer on %s...\n", lis.Addr())
		dial = func() (*aces.Conn, error) { return lis.Accept() }
	} else {
		dial = func() (*aces.Conn, error) { return aces.Dial(o.peer, 2*time.Second) }
	}
	// Batches of up to 32 SDOs, flushed whenever the outbox runs idle; the
	// outbox size and write deadline are the library defaults.
	link := aces.NewResilientLink(dial, aces.ResilientOptions{BatchMax: 32})
	defer link.Close()
	serveDone := make(chan error, 1)

	fmt.Printf("hosting nodes %v of %d-PE topology under %s for %.0fs virtual...\n",
		o.localNodes, topo.NumPEs(), o.pol, o.duration)
	// Salt the tracer with the partition's first node so the two sides of
	// a bridge never mint colliding trace IDs (stitching is by ID).
	rep, err := o.deploy(aces.ClusterConfig{
		Topo: topo, CPU: cpu, LocalNodes: o.localNodes, Uplink: link,
		Health: &aces.HealthConfig{Every: 0.5},
	}, fmt.Sprintf("aces partition hosting nodes %v (%s)", o.localNodes, o.pol),
		o.seed*1000003+int64(o.localNodes[0])+1,
		func(cl *aces.Cluster) { go func() { serveDone <- link.Serve(cl) }() })
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
	o.reportControl(rep)
	return nil
}
