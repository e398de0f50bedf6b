package spc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aces/internal/control"
	"aces/internal/controller"
	"aces/internal/graph"
	"aces/internal/health"
	"aces/internal/metrics"
	"aces/internal/obs"
	"aces/internal/policy"
	"aces/internal/ring"
	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/stats"
	"aces/internal/workload"
)

// Config parameterizes a cluster deployment.
type Config struct {
	// Topo is the deployment (required, must validate).
	Topo *graph.Topology
	// Policy selects the flow/CPU discipline (required).
	Policy policy.Policy
	// CPU are the tier-1 targets c̄_j (required).
	CPU []float64
	// Dt is the control period in virtual seconds (default 0.010).
	Dt float64
	// TimeScale runs virtual time this many times faster than wall time
	// (default 20; 1 = real time).
	TimeScale float64
	// Warmup discards metrics before this virtual time (default 2s).
	Warmup float64
	// Seed drives synthetic workloads and sources.
	Seed int64
	// B0Frac, QWeight, RWeight and BurstTicks mirror the simulator's
	// controller parameters.
	B0Frac, QWeight, RWeight, BurstTicks float64
	// Processors overrides the default synthetic workload per PE (its
	// primary replica slot; see ReplicaProcs for the others).
	Processors map[sdo.PEID]Processor
	// ReplicaProcs builds the processor for replica slot rep (> 0) of PE j.
	// Processors are stateful, so replicas can never share the primary's
	// instance; elastic PEs with custom Processors must supply a factory.
	// When nil (or when the factory returns nil) each replica gets an
	// independently seeded synthetic workload from the PE's declared
	// service model.
	ReplicaProcs func(j sdo.PEID, rep int32) Processor
	// LocalNodes restricts this process to hosting the PEs placed on the
	// listed nodes (empty = host everything). Edges whose target lives in
	// a peer process are forwarded through Uplink; SDOs and feedback from
	// peers enter through InjectSDO / InjectFeedback. Blocking policies
	// (Lock-Step) cannot cross a partition boundary: credits would need a
	// distributed handshake, and the paper's System 3 is evaluated
	// unpartitioned.
	LocalNodes []sdo.NodeID
	// Uplink carries cross-partition SDOs and r_max advertisements.
	// Required when LocalNodes is set and edges cross the boundary.
	Uplink RemoteLink
	// Tracer enables per-SDO tracing: ingress SDOs are sampled, one span
	// is recorded per hop, and terminal events (egress, shed, drop,
	// uplink drop) end the trace. nil disables tracing entirely; the data
	// path then pays no more than a nil check per emit.
	Tracer *obs.Tracer
	// Telemetry, when set, receives live gauges and counters (buffer
	// occupancy, token level, r_max, CPU grants, sheds, uplink drops)
	// sampled on the Δt scheduler tick, with periodic snapshots flushed
	// to the registry's sink.
	Telemetry *obs.Registry
	// Supervisor tunes PE panic recovery; zero value = defaults (5
	// restarts, 10ms–1s jittered backoff).
	Supervisor SupervisorOptions
	// Health enables heartbeat membership for partitioned deployments:
	// the snapshot node's scheduler beacons local liveness over the
	// Uplink, incoming beacons feed a timeout detector, and PEs on
	// suspect or dead peer nodes are treated as r_max = 0 in the Eq. 8
	// bounds. nil disables membership (unpartitioned runs need none).
	Health *HealthConfig
	// Safety enables the stale-target safety mode: a process that has not
	// applied a FRESH target epoch within Safety.After virtual seconds
	// degrades its effective targets toward the declared-model allocation
	// (Config.CPU) by a bounded step per scheduler tick, instead of
	// running indefinitely on targets calibrated for a world that no
	// longer exists. nil disables (runs without an adaptive loop need
	// none). See SafetyConfig.
	Safety *SafetyConfig
	// SchedShards splits each node's Δt scheduler into this many shards,
	// each a goroutine owning a disjoint slice of the node's PE slots with
	// its own tick scratch and planner — the Δt loop stops serializing
	// every co-located PE on one goroutine. Each shard plans against its
	// share of the node's 1.0 CPU (proportional to its slots' installed
	// targets, recomputed at every epoch fold-in), so the shards jointly
	// enforce the same node capacity a single scheduler did. 0 (the
	// default) sizes automatically: one shard per available core, but
	// never more than one per 16 PE slots — small nodes keep the exact
	// single-scheduler behaviour. Values above the node's slot count are
	// clamped.
	SchedShards int
}

// RemoteLink transports SDOs and feedback to peer processes hosting the
// rest of a partitioned topology. Implementations must be safe for
// concurrent use; transport.Conn-backed links (see Link) qualify.
type RemoteLink interface {
	// SendSDO forwards an SDO to the process hosting PE `to`.
	SendSDO(to sdo.PEID, s sdo.SDO) error
	// SendFeedback broadcasts a local PE's r_max advertisement to peers.
	SendFeedback(pe int32, rmax float64) error
}

// ControlSender is the optional RemoteLink extension carrying the
// control plane besides feedback: liveness beacons, (term, epoch)-stamped
// target sets and dissemination acks. Link, ResilientLink and Router
// implement it; an uplink without it simply never beacons or
// disseminates. Sends must be best-effort and non-blocking: beacons and
// target broadcasts are periodic and (term, epoch)-idempotent, so a lost
// frame is repaired by the next one, and a lost ack by the ack that
// follows the next target frame.
type ControlSender interface {
	// SendHeartbeat asserts that node `node` is alive; seq increments per
	// beacon.
	SendHeartbeat(node int32, seq uint64) error
	// SendTargets disseminates a target set: rep[j][r] is the CPU target
	// of replica slot r of PE j.
	SendTargets(term, epoch uint64, rep [][]float64) error
	// SendTargetAck reports up the dissemination tree that node origin
	// has applied targets through (term, epoch).
	SendTargetAck(origin int32, term, epoch uint64) error
}

func (c *Config) fillDefaults() error {
	if c.Topo == nil {
		return fmt.Errorf("spc: Topo is required")
	}
	if err := c.Topo.Validate(); err != nil {
		return fmt.Errorf("spc: %w", err)
	}
	if c.Policy == 0 {
		return fmt.Errorf("spc: Policy is required")
	}
	if len(c.CPU) != c.Topo.NumPEs() {
		return fmt.Errorf("spc: CPU targets have %d entries, topology has %d PEs", len(c.CPU), c.Topo.NumPEs())
	}
	if c.Dt <= 0 {
		c.Dt = 0.010
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 20
	}
	if c.Warmup <= 0 {
		c.Warmup = 2
	}
	if c.B0Frac <= 0 || c.B0Frac >= 1 {
		c.B0Frac = 0.5
	}
	if c.QWeight <= 0 {
		c.QWeight = 1
	}
	if c.RWeight <= 0 {
		c.RWeight = 8
	}
	if c.BurstTicks < 1 {
		c.BurstTicks = 40
	}
	c.Supervisor.fillDefaults()
	if c.Health != nil {
		c.Health.fillDefaults(c.Dt)
	}
	if c.Safety != nil {
		if err := c.Safety.fillDefaults(); err != nil {
			return err
		}
	}
	return nil
}

// peRuntime is the live counterpart of the simulator's peState — one
// replica slot of a logical PE (slot 0 is the primary; non-elastic PEs
// have only that).
type peRuntime struct {
	id sdo.PEID
	// rep is the replica slot index; key the slot's feedback-board key
	// (key == int32(id) for the primary, so pre-elastic wire frames and
	// bounds keep their meaning).
	rep int32
	key int32
	// egress marks a PE with no downstream in the topology.
	egress bool
	node   sdo.NodeID
	weight float64
	buf    *Buffer
	proc   Processor
	model  CostModeler // nil → measured costs
	// downID lists the LOGICAL downstream PE ids; the applied target set's
	// routing rings and key groups resolve them to replica slots per tick
	// and per SDO.
	downID []int32

	// Telemetry handles (nil when Config.Telemetry is unset). Gauges are
	// sampled by the scheduler; the shed counter is bumped on drop paths.
	gOcc, gTokens, gRmax, gGrant *obs.Gauge
	gTarget, gLent               *obs.Gauge
	cSheds                       *obs.Counter
	cRestarts                    *obs.Counter
	gBreaker                     *obs.Gauge

	// Supervision state: restarts counts panic recoveries, breaker is set
	// by the supervisor when the restart budget is exhausted.
	restarts atomic.Int64
	breaker  atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	budget float64 // virtual CPU-seconds granted and unspent
	mcost  measuredCost
	// Calibration window (guarded by mu): CPU actually spent and SDOs
	// processed since the last calSample, plus the smoothed window
	// trackers the retarget loop reads. calLast is the window-open time.
	calCPU, calN float64
	calLast      float64
	trkCPU       *stats.RateTracker
	trkRate      *stats.RateTracker

	held    atomic.Int32 // 1 while the PE goroutine holds a popped SDO
	blocked atomic.Bool  // lock-step: waiting on a full downstream buffer

	// Scheduler-owned state (only the node scheduler touches these).
	bucket *controller.TokenBucket
	fc     *control.FlowController
	// parked records that the scheduler has acted on a tripped breaker:
	// bucket rate zeroed, share released, r_max = 0 advertised.
	parked bool
	// wasActive tracks whether this replica slot had a positive target
	// under the last applied epoch (scheduler-owned; drives the drain on
	// an active → inactive transition).
	wasActive bool
	// admitSeen is buf.Admitted() as read at the last tick; the next tick's
	// reading minus this one is the interval's arrivals.
	admitSeen uint64
	// lent is the part of the last grant that was the node's idle CPU and
	// not the PE's allocation, in CPU-seconds: in the PE's budget, not yet
	// debited from its bucket. settle clears it.
	lent float64
}

// occupancy counts buffered plus held SDOs.
func (p *peRuntime) occupancy() int { return p.buf.Len() + int(p.held.Load()) }

// cost returns the per-SDO cost estimate at virtual time now.
func (p *peRuntime) cost(now float64) float64 {
	if p.model != nil {
		return p.model.NextCost(now)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mcost.estimate()
}

// grant deposits CPU budget and wakes the PE goroutine.
func (p *peRuntime) grant(b float64) {
	p.mu.Lock()
	p.budget += b
	p.cond.Broadcast()
	p.mu.Unlock()
}

// reclaim ends an interval's grant, of which loan CPU-seconds were lent.
// The loan is spent last and none of it stays: the PE keeps what is left
// of its own allocation up to keep, everything else is taken back. The
// result is what the bucket is owed: the unspent allocation beyond keep,
// or, negative, the part of the loan the PE used. The scheduler keeps one
// SDO's cost with the PE: a PE whose per-tick allocations are smaller than
// an SDO saves up for it there, and nothing larger can bank outside the
// token bucket.
func (p *peRuntime) reclaim(keep, loan float64) float64 {
	p.mu.Lock()
	if own := p.budget - loan; own < keep {
		keep = math.Max(own, 0)
	}
	back := p.budget - keep
	p.budget = keep
	p.mu.Unlock()
	return back - loan
}

// safeFeedback is a mutex-guarded wrapper of controller.Feedback shared by
// all node schedulers.
type safeFeedback struct {
	mu sync.RWMutex
	fb *controller.Feedback
}

func (s *safeFeedback) publish(j int32, r float64) {
	s.mu.Lock()
	s.fb.Publish(j, r)
	s.mu.Unlock()
}

func (s *safeFeedback) outputBound(down []int32) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fb.OutputBound(down)
}

func (s *safeFeedback) minBound(down []int32) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fb.MinBound(down)
}

func (s *safeFeedback) forget(j int32) {
	s.mu.Lock()
	s.fb.Forget(j)
	s.mu.Unlock()
}

func (s *safeFeedback) markDown(j int32, down bool) {
	s.mu.Lock()
	s.fb.MarkDown(j, down)
	s.mu.Unlock()
}

func (s *safeFeedback) recover(j int32) {
	s.mu.Lock()
	s.fb.Recover(j)
	s.mu.Unlock()
}

func (s *safeFeedback) groupedOutputBound(groups [][]int32, down []int32) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fb.GroupedOutputBound(groups, down)
}

func (s *safeFeedback) groupedMinBound(groups [][]int32, down []int32) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fb.GroupedMinBound(groups, down)
}

func (s *safeFeedback) groupedAllDown(groups [][]int32, down []int32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fb.GroupedAllDown(groups, down)
}

// safeCollector guards a metrics.Collector for concurrent recording.
type safeCollector struct {
	mu  sync.Mutex
	col *metrics.Collector
}

func (s *safeCollector) egress(now, w, lat float64) {
	s.mu.Lock()
	s.col.Egress(now, w, lat)
	s.mu.Unlock()
}

func (s *safeCollector) inputDrop(now float64) {
	s.mu.Lock()
	s.col.InputDrop(now)
	s.mu.Unlock()
}

func (s *safeCollector) inFlightDrop(now float64, hops int) {
	s.mu.Lock()
	s.col.InFlightDrop(now, hops)
	s.mu.Unlock()
}

func (s *safeCollector) bufferSample(now, occ float64) {
	s.mu.Lock()
	s.col.BufferSample(now, occ)
	s.mu.Unlock()
}

func (s *safeCollector) finalize(now float64) metrics.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.Finalize(now)
}

// Cluster is a running deployment: node schedulers, PE goroutines and
// source generators wired per the topology.
type Cluster struct {
	cfg   Config
	clock Clock
	scale float64
	// pes[j] is PE j's primary replica slot (nil when hosted elsewhere);
	// replicas[j][r] all of its local slots; prs the flat list of every
	// local slot runtime.
	pes      []*peRuntime
	replicas [][]*peRuntime
	prs      []*peRuntime
	nodes    [][]*peRuntime
	fb       *safeFeedback
	col      *safeCollector

	// local[j] reports whether PE j is hosted by this process.
	local []bool
	// links are uplinks whose transport counters join the run report.
	links []LinkStatsSource
	// linkGauges[i] holds the telemetry handles for links[i] (empty when
	// Config.Telemetry is unset); sampled with the registry flush.
	linkGauges []linkGauges
	// delivered counts post-warmup egress SDOs per local PE.
	delivered  []atomic.Int64
	warmupVirt float64

	// Observability (all nil/zero when disabled).
	tracer *obs.Tracer
	reg    *obs.Registry

	// Failure domain (all nil/zero when Config.Health is unset or the
	// deployment is unpartitioned).
	det *health.Detector
	// hbSeq is owned by the snapshot node's scheduler.
	hbSeq uint64
	// localNodeIDs lists the nodes this process beacons for.
	localNodeIDs []int32
	// remotePEs maps a peer node to the PE IDs it hosts, so a membership
	// verdict on the node marks all of its PEs up or down at once.
	remotePEs map[int32][]int32
	// gMember holds one member_state gauge per tracked peer node
	// (0 alive, 1 suspect, 2 dead).
	gMember map[int32]*obs.Gauge
	// snapNode is the node whose scheduler flushes registry snapshots
	// (the lowest-numbered local node with PEs), so one tick owner
	// produces the time series instead of every scheduler racing to.
	snapNode int

	// ctl and els are the uplink's optional extensions (nil if
	// unsupported): control frames (heartbeats, target dissemination,
	// acks) and replica-addressed SDO forwarding.
	ctl ControlSender
	els ElasticLink

	// Retargeting state: targets is the applied epoch-stamped CPU target
	// set (schedulers load it once per tick), retargets the count of
	// accepted epochs, gEpoch its telemetry gauge.
	targets   atomic.Pointer[targetSet]
	retargets atomic.Int64
	gEpoch    *obs.Gauge
	// hier is the dissemination-tree state (inert for flat deployments);
	// see EnableHierRelay. framesSent counts target frames pushed to tree
	// children; lastSolveMs/lastSolveIters snapshot the most recent
	// tier-1 re-solve for the report and the solve_ms/solve_iters gauges.
	hier           hierRelay
	framesSent     atomic.Int64
	lastSolveMs    atomic.Uint64 // float64 bits
	lastSolveIters atomic.Int64
	gSolveMs       *obs.Gauge
	gSolveIters    *obs.Gauge
	gEpochLag      *obs.Gauge

	// Failover and fencing state: ctrlTerm is the controller term this
	// process stamps on epochs it originates (0 = the deployment-time
	// controller; ClaimControl raises it), fenced counts frames rejected
	// for carrying a deposed term. lastCtrlFrame and lastFresh are
	// float64-bit virtual timestamps: the last controller frame received
	// from a live (non-deposed) term — the silence clock failover watchers
	// and tree repair read — and the last FRESH epoch applied — the
	// staleness clock the safety mode reads.
	ctrlTerm      atomic.Uint64
	fenced        atomic.Int64
	lastCtrlFrame atomic.Uint64 // float64 bits
	lastFresh     atomic.Uint64 // float64 bits
	// safeOn mirrors whether any node scheduler currently runs a non-zero
	// safety blend (SafeModeActive).
	safeOn     atomic.Bool
	gTerm      *obs.Gauge
	gSafeBlend *obs.Gauge

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// rtWG joins the retarget loop separately: Stop quiesces it BEFORE
	// closing buffers, so a re-solve can never race cluster teardown.
	rtWG    sync.WaitGroup
	started bool
	mu      sync.Mutex
}

// NewCluster validates the configuration and builds a cluster; call Run
// (or Start/Stop) to execute it.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	t := cfg.Topo
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:      cfg,
		clock:    NewScaledClock(cfg.TimeScale),
		scale:    cfg.TimeScale,
		fb:       &safeFeedback{fb: controller.NewFeedback()},
		col:      &safeCollector{col: metrics.NewCollector(cfg.Warmup)},
		tracer:   cfg.Tracer,
		reg:      cfg.Telemetry,
		snapNode: -1,
		ctx:      ctx,
		cancel:   cancel,
	}
	c.nodes = make([][]*peRuntime, t.NumNodes)
	c.pes = make([]*peRuntime, t.NumPEs())
	c.local = make([]bool, t.NumPEs())
	c.delivered = make([]atomic.Int64, t.NumPEs())
	c.warmupVirt = cfg.Warmup
	localNode := make([]bool, t.NumNodes)
	if len(cfg.LocalNodes) == 0 {
		for n := range localNode {
			localNode[n] = true
		}
	} else {
		for _, n := range cfg.LocalNodes {
			if n < 0 || int(n) >= t.NumNodes {
				cancel()
				return nil, fmt.Errorf("spc: LocalNodes references unknown node %d", n)
			}
			localNode[n] = true
		}
	}
	for j := 0; j < t.NumPEs(); j++ {
		c.local[j] = localNode[t.PEs[j].Node]
	}
	// A deployment is partitioned when ANY replica slot — not just a
	// primary — is placed on a node this process does not host.
	partitioned := false
	for j := 0; j < t.NumPEs(); j++ {
		for _, n := range t.ReplicaPlacement(sdo.PEID(j)) {
			if !localNode[n] {
				partitioned = true
			}
		}
	}
	if partitioned {
		crossing := false
		for j := 0; j < t.NumPEs(); j++ {
			for _, d := range t.Down(sdo.PEID(j)) {
				if c.local[j] != c.local[d] {
					crossing = true
				}
			}
			// A replica group split across the boundary crosses by
			// construction: upstreams route to every active slot.
			for _, n := range t.ReplicaPlacement(sdo.PEID(j)) {
				if localNode[n] != c.local[j] {
					crossing = true
				}
			}
		}
		if crossing && cfg.Uplink == nil {
			cancel()
			return nil, fmt.Errorf("spc: partitioned deployment with boundary-crossing edges requires an Uplink")
		}
		if crossing && cfg.Policy.Blocking() {
			cancel()
			return nil, fmt.Errorf("spc: %v cannot cross a partition boundary (blocking needs local buffers)", cfg.Policy)
		}
	}
	c.replicas = make([][]*peRuntime, t.NumPEs())
	// Slots whose buffers share a size share a design: the Riccati solve
	// runs once per distinct DesignConfig, and the controllers share its
	// gains, which they only read.
	designs := map[control.DesignConfig]control.FlowGains{}
	for j := 0; j < t.NumPEs(); j++ {
		pe := &t.PEs[j]
		place := t.ReplicaPlacement(sdo.PEID(j))
		c.replicas[j] = make([]*peRuntime, len(place))
		for r, node := range place {
			if !localNode[node] {
				continue
			}
			bufCap := t.BufferSize(sdo.PEID(j))
			// Epoch 0 is the deployment-time allocation: the whole logical
			// target runs on the primary; replica slots are built dormant
			// and wake when an elastic epoch assigns them CPU.
			target0 := 0.0
			if r == 0 {
				target0 = cfg.CPU[j]
			}
			// Primary slots have exactly one consumer — the PE goroutine's
			// Pop loop — so they run the ring's single-consumer fast path.
			// Replica slots are also drained by the scheduler on scale-in
			// (drainReplica), so they stay multi-consumer. The push side is
			// always multi-producer; see Buffer's doc comment.
			bufMode := ring.MPMC
			if r == 0 {
				bufMode = ring.SingleConsumer
			}
			pr := &peRuntime{
				id:     sdo.PEID(j),
				rep:    int32(r),
				key:    repKey(int32(j), int32(r)),
				egress: len(t.Down(sdo.PEID(j))) == 0,
				node:   node,
				weight: pe.Weight,
				buf:    newBufferMode(bufCap, bufMode),
				bucket: controller.NewTokenBucket(target0, cfg.BurstTicks),
				// Calibration windows close every 10th tick; the nominal
				// interval only matters for Tick(), which the live scheduler
				// never uses (it rates windows over measured elapsed time).
				trkCPU:  stats.NewRateTracker(10*cfg.Dt, 0.3),
				trkRate: stats.NewRateTracker(10*cfg.Dt, 0.3),
			}
			pr.cond = sync.NewCond(&pr.mu)
			if c.reg != nil {
				labels := obs.Labels{"pe": fmt.Sprint(j), "node": fmt.Sprint(node)}
				if r > 0 {
					labels["rep"] = fmt.Sprint(r)
				}
				pr.gOcc = c.reg.Gauge("buffer_occupancy", labels)
				pr.gTokens = c.reg.Gauge("tokens", labels)
				pr.gRmax = c.reg.Gauge("rmax", labels)
				pr.gGrant = c.reg.Gauge("cpu_grant", labels)
				pr.gLent = c.reg.Gauge("cpu_lent", labels)
				pr.gTarget = c.reg.Gauge("target_cpu", labels)
				pr.gTarget.Set(target0)
				pr.cSheds = c.reg.Counter("sheds_total", labels)
				pr.cRestarts = c.reg.Counter("pe_restarts_total", labels)
				pr.gBreaker = c.reg.Gauge("breaker_open", labels)
			}
			switch {
			case r == 0:
				if p, ok := cfg.Processors[sdo.PEID(j)]; ok && p != nil {
					pr.proc = p
					if m, ok := p.(CostModeler); ok {
						pr.model = m
					}
				}
			case cfg.ReplicaProcs != nil:
				if p := cfg.ReplicaProcs(sdo.PEID(j), int32(r)); p != nil {
					pr.proc = p
					if m, ok := p.(CostModeler); ok {
						pr.model = m
					}
				}
			}
			if pr.proc == nil {
				// Independently seeded per slot: replicas must never share
				// a stateful workload instance.
				syn := NewSynthetic(pe.Service, sdo.StreamID(1000+j), sim.Substream(cfg.Seed, uint64(j)+1000+uint64(r)*8191))
				pr.proc = syn
				pr.model = syn
			}
			if cfg.Policy.UsesFeedback() {
				dc := control.DesignConfig{
					Delay: 2, QWeight: cfg.QWeight, RWeight: cfg.RWeight, Smoothing: 1,
					B0: cfg.B0Frac * float64(bufCap),
				}
				gains, ok := designs[dc]
				if !ok {
					var err error
					if gains, err = control.Design(dc); err != nil {
						cancel()
						return nil, fmt.Errorf("spc: PE %d gain design: %w", j, err)
					}
					designs[dc] = gains
				}
				fc, err := control.NewFlowController(gains, 0)
				if err != nil {
					cancel()
					return nil, fmt.Errorf("spc: PE %d controller: %w", j, err)
				}
				pr.fc = fc
			}
			c.replicas[j][r] = pr
			c.prs = append(c.prs, pr)
			c.nodes[node] = append(c.nodes[node], pr)
		}
		c.pes[j] = c.replicas[j][0]
	}
	for j := 0; j < t.NumPEs(); j++ {
		downs := t.Down(sdo.PEID(j))
		if len(downs) == 0 {
			continue
		}
		// Feedback bounds consider every downstream group; remote r_max
		// arrives via InjectFeedback under the advertising slot's key.
		ids := make([]int32, len(downs))
		for i, d := range downs {
			ids[i] = int32(d)
		}
		for _, pr := range c.replicas[j] {
			if pr != nil {
				pr.downID = ids
			}
		}
	}
	for n := range c.nodes {
		if len(c.nodes[n]) > 0 {
			c.snapNode = n
			break
		}
	}
	if cfg.Health != nil && partitioned {
		for n := 0; n < t.NumNodes; n++ {
			if localNode[n] {
				if len(c.nodes[n]) > 0 {
					c.localNodeIDs = append(c.localNodeIDs, int32(n))
				}
				continue
			}
		}
		c.remotePEs = make(map[int32][]int32)
		for j := 0; j < t.NumPEs(); j++ {
			for r, n := range t.ReplicaPlacement(sdo.PEID(j)) {
				if !localNode[n] {
					c.remotePEs[int32(n)] = append(c.remotePEs[int32(n)], repKey(int32(j), int32(r)))
				}
			}
		}
		c.gMember = make(map[int32]*obs.Gauge)
		// A membership verdict on a peer node marks every replica slot it
		// hosts up or down on the local feedback board: Eq. 8 then treats
		// those slots as r_max = 0 (suspect/dead) instead of
		// silent-unconstrained. Recovery goes the other way COMPLETELY:
		// the down-mark is cleared AND the stale pre-outage advertisement
		// erased, so the recovered slot re-enters cold-start-unconstrained
		// and upstream bounds reopen the moment the verdict flips, not
		// whenever a fresh feedback frame happens to overwrite a ghost
		// r_max pinned near 0 by the dying host's congestion.
		c.det = health.New(health.Options{
			SuspectAfter: cfg.Health.SuspectAfter,
			DeadAfter:    cfg.Health.DeadAfter,
		}, func(peer int32, _, to health.State) {
			down := to != health.Alive
			for _, key := range c.remotePEs[peer] {
				if down {
					c.fb.markDown(key, true)
				} else {
					c.fb.recover(key)
				}
			}
			if g := c.gMember[peer]; g != nil {
				g.Set(float64(to))
			}
		})
		for n := range c.remotePEs {
			c.det.Track(n, c.clock.Now())
			if c.reg != nil {
				c.gMember[n] = c.reg.Gauge("member_state", obs.Labels{"node": fmt.Sprint(n)})
			}
		}
	}
	// Term 0 / epoch 0 is the deployment-time allocation; schedulers apply
	// later epochs hitlessly as SetTargets/InjectTermTargets install them.
	c.targets.Store(c.makeTargetSet(0, 0, c.primaryColumn(cfg.CPU)))
	c.ctl, _ = cfg.Uplink.(ControlSender)
	c.els, _ = cfg.Uplink.(ElasticLink)
	if c.reg != nil {
		c.gEpoch = c.reg.Gauge("retarget_epoch", nil)
		c.gSolveMs = c.reg.Gauge("solve_ms", nil)
		c.gSolveIters = c.reg.Gauge("solve_iters", nil)
		c.gEpochLag = c.reg.Gauge("retarget_epoch_lag", nil)
		c.gTerm = c.reg.Gauge("retarget_term", nil)
		if cfg.Safety != nil {
			c.gSafeBlend = c.reg.Gauge("safe_mode_blend", nil)
		}
	}
	return c, nil
}

// Start launches all goroutines. It is an error to start twice.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("spc: cluster already started")
	}
	c.started = true
	// Arm the staleness and silence clocks at launch; CompareAndSwap
	// keeps a StartFailover/EnableHierRepair arming done before Start.
	now := math.Float64bits(c.clock.Now())
	c.lastFresh.CompareAndSwap(0, now)
	c.lastCtrlFrame.CompareAndSwap(0, now)
	for _, pr := range c.prs {
		pr := pr
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.runPE(pr)
		}()
	}
	for n := range c.nodes {
		if len(c.nodes[n]) == 0 {
			continue
		}
		n := n
		// Shard the node's Δt loop across cores: each shard owns a
		// disjoint contiguous slice of the node's slots with its own
		// ticker, scratch and token-bucket updates. Defaults keep small
		// nodes (and every existing test) on a single whole-node
		// scheduler.
		shards := c.schedShardsFor(len(c.nodes[n]))
		for s := 0; s < shards; s++ {
			s := s
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.runScheduler(n, s, shards)
			}()
		}
	}
	for si := range c.cfg.Topo.Sources {
		src := c.cfg.Topo.Sources[si]
		if !c.local[src.Target] {
			continue
		}
		proc, err := src.Burst.Build(src.Rate, sim.Substream(c.cfg.Seed, uint64(si)+5000))
		if err != nil {
			return fmt.Errorf("spc: source %d: %w", si, err)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.runSource(src, proc)
		}()
	}
	return nil
}

// Stop cancels all goroutines and waits for them to exit. The retarget
// loop is quiesced FIRST (context-joined on its own wait group): a
// re-solve caught mid-flight would otherwise race buffer teardown and the
// final target swap against the dying schedulers.
func (c *Cluster) Stop() {
	c.cancel()
	c.rtWG.Wait()
	for _, pr := range c.prs {
		pr.buf.Close()
		pr.mu.Lock()
		pr.cond.Broadcast()
		pr.mu.Unlock()
	}
	c.wg.Wait()
}

// Run starts the cluster, lets it run for the given virtual duration, and
// returns the metrics report.
func (c *Cluster) Run(duration float64) (metrics.Report, error) {
	if err := c.Start(); err != nil {
		return metrics.Report{}, err
	}
	wall := time.Duration(duration / c.scale * float64(time.Second))
	timer := time.NewTimer(wall)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-c.ctx.Done():
	}
	end := c.clock.Now()
	c.Stop()
	return c.Report(end), nil
}

// traceDrop ends a sampled SDO's trace with a terminal loss span at the
// PE where it died. No-op when tracing is off or the SDO is unsampled.
func (c *Cluster) traceDrop(s sdo.SDO, pe int32, node int32, ev obs.Event) {
	if c.tracer == nil || s.Trace == 0 {
		return
	}
	c.tracer.Record(obs.Span{
		Trace: s.Trace, PE: pe, Node: node, Hops: int32(s.Hops),
		Enqueue: s.TraceEnq, Done: c.clock.Now(), Event: ev,
	})
}

// emitter builds the policy-appropriate emit callback for a PE. Each
// emitted SDO is routed per downstream LOGICAL PE through the applied
// target set's replica ring: keyed SDOs stick to one replica, unkeyed
// ones spread by (Stream, Seq), and a non-elastic downstream's singleton
// ring reproduces the pre-elastic path exactly.
func (c *Cluster) emitter(pr *peRuntime) func(sdo.SDO) {
	if pr.egress {
		return func(out sdo.SDO) {
			now := c.clock.Now()
			lat := time.Since(out.Origin).Seconds() * c.scale
			c.col.egress(now, pr.weight, lat)
			if now >= c.warmupVirt {
				c.delivered[pr.id].Add(1)
			}
		}
	}
	blocking := c.cfg.Policy.Blocking()
	shed := c.cfg.Policy == policy.LoadShed
	return func(out sdo.SDO) {
		out.Hops++
		if out.Trace != 0 {
			// Next hop's buffer-entry time; receivers across a bridge
			// re-stamp with their own clock.
			out.TraceEnq = c.clock.Now()
		}
		tgt := c.targets.Load()
		for _, d := range pr.downID {
			ref := tgt.pick(sdo.PEID(d), out)
			dst := ref.pr
			if dst == nil {
				// Cross-partition forwarding is non-blocking by
				// construction; a failed link counts as in-flight loss at
				// the sender.
				if err := c.sendReplicaSDO(ref.pe, ref.rep, out); err != nil {
					c.col.inFlightDrop(c.clock.Now(), out.Hops)
					c.traceDrop(out, d, -1, obs.EventUplinkDrop)
				}
				continue
			}
			switch {
			case blocking:
				pr.blocked.Store(true)
				ok := dst.buf.Push(c.ctx, out)
				pr.blocked.Store(false)
				if !ok {
					return
				}
			case shed && dst.buf.Len() >= shedThreshold(dst.buf.Cap()):
				// Threshold shedding: refuse before the buffer is brimful.
				c.col.inFlightDrop(c.clock.Now(), out.Hops)
				c.traceDrop(out, int32(dst.id), int32(dst.node), obs.EventShed)
				if dst.cSheds != nil {
					dst.cSheds.Inc()
				}
			default:
				if !dst.buf.TryPush(out) {
					c.col.inFlightDrop(c.clock.Now(), out.Hops)
					c.traceDrop(out, int32(dst.id), int32(dst.node), obs.EventDrop)
				}
			}
		}
	}
}

// shedThreshold is the occupancy at which the LoadShed comparator starts
// refusing SDOs: 80% of capacity with a floor of one, so tiny buffers
// (Cap ≤ 1, where integer math would make the threshold 0) still admit
// into an empty buffer instead of shedding everything.
func shedThreshold(capacity int) int {
	t := capacity * 8 / 10
	if t < 1 {
		t = 1
	}
	return t
}

// schedScratch holds one node scheduler's per-tick working set. The Δt
// loop fires tens of times a second on every node for the life of the
// cluster, so these buffers (and the planner's own scratch) are hoisted
// out of the loop: steady-state ticks must not allocate.
type schedScratch struct {
	ticks   []controller.PETick
	costs   []float64
	planner controller.Planner
	// appliedTerm/appliedEpoch identify the target set this node's token
	// buckets are currently tuned to. schedulerTick compares them against
	// the cluster's atomic target set at the top of every tick — one
	// pointer load and two integer compares on the steady-state path — and
	// folds a newer set's rates into the buckets in place, which is the
	// whole hitless-retarget mechanism: no drain, no restart, no pause.
	appliedTerm  uint64
	appliedEpoch uint64
	// safeBlend is the node's stale-target safety blend in [0, 1]: 0 runs
	// the installed targets untouched, 1 the declared-model allocation.
	// It ramps by Safety.Step per tick while the applied set is stale and
	// snaps to 0 the tick after a fresh epoch lands (hitless both ways —
	// only bucket rates move).
	safeBlend float64
	// capShare is the fraction of the node's 1.0 CPU this scheduler plans
	// against: 1 for a whole-node scheduler (the historical behaviour),
	// and the shard's proportional share of the node's installed targets
	// when the Δt loop is sharded. Recomputed at every epoch fold-in —
	// a pointer-compare miss already pays for applyEpoch, so the share
	// refresh adds nothing to the steady-state tick.
	capShare float64
	// sharded marks a scratch owned by one shard of a multi-shard node;
	// node/nodeLen feed the share computation (nodeLen is the node's total
	// slot count, the fallback ratio when the installed targets sum to 0).
	sharded bool
	node    int
	nodeLen int
}

func newSchedScratch(n int) *schedScratch {
	return &schedScratch{
		ticks:    make([]controller.PETick, n),
		costs:    make([]float64, n),
		capShare: 1,
	}
}

// newShardScratch builds the scratch for shard peers of node n, which
// plans against its proportional share of the node's CPU instead of the
// whole 1.0.
func newShardScratch(nPeers, node, nodeLen int) *schedScratch {
	scr := newSchedScratch(nPeers)
	// No epoch applied yet, whatever the cluster's first one is numbered:
	// the first tick folds it in, which is where a shard learns its share.
	// Planning against the default share of 1 until the first retarget
	// would promise the node once per shard.
	scr.appliedEpoch = math.MaxUint64
	scr.sharded = true
	scr.node = node
	scr.nodeLen = nodeLen
	return scr
}

// shardShare is the fraction of its node's CPU a shard plans against:
// the shard's installed slot-target sum over the node's. When the node's
// targets sum to zero the split falls back to slot counts, so an
// all-idle node still divides its capacity instead of planning against
// zero everywhere.
func shardShare(tgt *targetSet, peers []*peRuntime, node, nodeLen int) float64 {
	var sum float64
	for _, pr := range peers {
		sum += tgt.slot(pr.id, pr.rep)
	}
	total := tgt.nodeSum[node]
	if total <= 0 {
		return float64(len(peers)) / float64(nodeLen)
	}
	share := sum / total
	if share > 1 {
		share = 1
	}
	return share
}

// schedShardsFor picks the shard count for a node hosting nPeers slots:
// the configured SchedShards, or — when auto — one per available core
// with at least 16 slots per shard, so small nodes keep the exact
// single-goroutine scheduler they always had.
func (c *Cluster) schedShardsFor(nPeers int) int {
	s := c.cfg.SchedShards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
		if perCore := (nPeers + 15) / 16; s > perCore {
			s = perCore
		}
	}
	if s > nPeers {
		s = nPeers
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardRange returns the [lo, hi) slice of n items owned by shard s of
// `shards`: contiguous, disjoint, and within one item of even.
func shardRange(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// runScheduler is one shard of one node's Δt control loop: it owns a
// disjoint slice of the node's PE slots, its own ticker and its own
// planning scratch. Shard 0 additionally owns the node's (and, on the
// snapshot node, the process's) periodic duties — health beacons,
// detector sweeps, tree self-healing, link sampling, registry flushes —
// so sharding multiplies planning throughput without duplicating any
// once-per-node work. Single-shard nodes reproduce the historical
// whole-node scheduler exactly (capShare pinned to 1).
func (c *Cluster) runScheduler(n, shard, shards int) {
	nodePeers := c.nodes[n]
	lo, hi := shardRange(len(nodePeers), shards, shard)
	peers := nodePeers[lo:hi]
	if len(peers) == 0 {
		return
	}
	tick, stopTick := c.clock.Tick(c.cfg.Dt)
	defer stopTick()
	var scr *schedScratch
	if shards > 1 {
		scr = newShardScratch(len(peers), n, len(nodePeers))
	} else {
		scr = newSchedScratch(len(peers))
	}
	sample := 0
	last := c.clock.Now()
	for _, pr := range peers {
		pr.mu.Lock()
		pr.calLast = last
		pr.mu.Unlock()
	}
	// The snapshot node's first shard owns the failure domain's periodic
	// work: sending liveness beacons and sweeping the detector.
	healthOwner := n == c.snapNode && shard == 0 && c.det != nil
	lastBeat := math.Inf(-1)
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick:
		}
		now := c.clock.Now()
		if healthOwner {
			if now-lastBeat >= c.cfg.Health.Every {
				lastBeat = now
				c.sendHeartbeats()
			}
			c.det.Check(now)
		}
		// Use measured elapsed virtual time as the effective period: OS
		// timers are late and coalesce under load, and a fixed Δt would
		// silently discard the entitlement of every missed tick. Clamp so
		// a single wild measurement cannot destabilize the controller.
		dt := now - last
		last = now
		if dt < 0.25*c.cfg.Dt {
			dt = 0.25 * c.cfg.Dt
		}
		if dt > 10*c.cfg.Dt {
			dt = 10 * c.cfg.Dt
		}
		c.schedulerTick(peers, scr, now, dt)
		sample++
		if sample%10 == 0 {
			for _, pr := range peers {
				c.col.bufferSample(now, float64(pr.occupancy()))
				// Close the PE's calibration window over measured elapsed
				// virtual time — rate-model samples for the adaptive loop.
				pr.calSample(now)
			}
			if n == c.snapNode && shard == 0 {
				// Tree self-healing sweeps ride the sampling cadence (every
				// 10th tick): silence timeouts and retransmission windows
				// are orders of magnitude longer than 10 Δt.
				c.hierMaintain(now)
				c.sampleLinks()
				// One shard owns the registry flush so the time series is a
				// clean sequence of frames, not interleaved per-node
				// partials.
				if c.reg != nil {
					c.reg.Flush(now)
				}
			}
		}
	}
}

// settle closes the interval a PE was last granted for (scheduler goroutine
// only): what the PE did not spend of its allocation beyond keep goes back
// into its bucket, the unused loan goes back to the node, and the part of
// the loan the PE used is debited now (budget is CPU-seconds, tokens are
// fractions of a nominal Δt). The bucket stays the only place entitlement
// accumulates: at every tick boundary
//
//	bucket + (budget − lent)/Δt = the level of a bucket never granted from
//
// less what the PE actually ran, and after settle budget ≤ keep, lent = 0.
func (c *Cluster) settle(pr *peRuntime, keep float64) {
	net := pr.reclaim(keep, pr.lent) / c.cfg.Dt
	pr.lent = 0
	if net < 0 {
		pr.bucket.Spend(-net)
	} else {
		pr.bucket.Refund(net)
	}
}

// schedulerTick runs one planning period for a node's PEs: sample state,
// plan the allocation, grant CPU, and publish flow-control feedback. It
// is factored out of runScheduler so tests can drive it directly and
// assert it allocates nothing in steady state.
func (c *Cluster) schedulerTick(peers []*peRuntime, scr *schedScratch, now, dt float64) {
	pol := c.cfg.Policy
	elapsedTicks := dt / c.cfg.Dt
	// One atomic load per tick decides which tier-1 targets govern it; an
	// epoch change re-tunes the token buckets before any planning happens,
	// so a tick never mixes old rates with new targets.
	tgt := c.targets.Load()
	if tgt.epoch != scr.appliedEpoch || tgt.term != scr.appliedTerm {
		c.applyEpoch(peers, tgt)
		scr.appliedTerm = tgt.term
		scr.appliedEpoch = tgt.epoch
		// A shard plans against its proportional share of the node's CPU,
		// fixed per epoch so concurrent shards never chase each other's
		// allocations. A single-shard node keeps capShare = 1 — the exact
		// historical whole-node planning capacity.
		if scr.sharded {
			scr.capShare = shardShare(tgt, peers, scr.node, scr.nodeLen)
		}
	}
	if c.cfg.Safety != nil {
		c.safetyTick(peers, scr, tgt, now)
	}
	ticks := scr.ticks[:len(peers)]
	costs := scr.costs[:len(peers)]
	for i, pr := range peers {
		if pr.breaker.Load() {
			if !pr.parked {
				c.parkPE(pr, pol)
			}
			// A parked PE contributes no work and asks for no share; the
			// planner redistributes its target to co-located PEs exactly
			// as it does for a lock-step-blocked one.
			ticks[i] = controller.PETick{Target: tgt.slot(pr.id, pr.rep), Blocked: true}
			costs[i] = 0
			continue
		}
		if pr.rep != 0 && tgt.slot(pr.id, pr.rep) == 0 {
			// Dormant replica slot: no target, no work routed to it, no
			// share to ask for. It earns and publishes nothing until an
			// epoch activates it.
			ticks[i] = controller.PETick{Blocked: true}
			costs[i] = 0
			continue
		}
		cost := pr.cost(now)
		costs[i] = cost
		// Close the interval just ended before planning the next.
		c.settle(pr, cost)
		occ := float64(pr.occupancy())
		if pr.gOcc != nil {
			pr.gOcc.Set(occ)
			pr.gTokens.Set(pr.bucket.Level())
		}
		// The grant has to last until the next tick, so it covers what is
		// queued now plus what will arrive meanwhile — taken to be as many
		// SDOs as the interval just ended admitted. A PE that is empty at
		// the tick instant but fed steadily can then serve SDOs as they
		// arrive instead of one tick late.
		admitted := pr.buf.Admitted()
		arrivals := float64(admitted - pr.admitSeen)
		pr.admitSeen = admitted
		work := (occ + arrivals) * cost / dt
		capFrac := math.Inf(1)
		mult := 1.0
		if syn, ok := pr.proc.(*Synthetic); ok {
			mult = syn.svc.Params().MeanMult
		}
		// Advertised r_max is in SDOs per nominal Δt; scale it to this
		// planning period before converting to a CPU fraction. Bounds are
		// grouped: a replicated downstream's capacity is the SUM of its
		// active slots' advertisements (singleton groups reproduce the
		// ungrouped bounds exactly).
		switch pol {
		case policy.ACES, policy.ACESStrictCPU:
			capFrac = controller.RateToCPU(c.fb.groupedOutputBound(tgt.groupKeys, pr.downID)*elapsedTicks, cost, mult, dt)
		case policy.ACESMinFlow:
			capFrac = controller.RateToCPU(c.fb.groupedMinBound(tgt.groupKeys, pr.downID)*elapsedTicks, cost, mult, dt)
		}
		ticks[i] = controller.PETick{
			Target: c.effSlot(tgt, pr.id, pr.rep, scr.safeBlend),
			// Bucket levels are in Δt-fractions; express them as a
			// fraction of this planning period.
			Tokens:    pr.bucket.Level() / elapsedTicks,
			Occupancy: occ,
			Work:      work,
			Cap:       capFrac,
			Blocked:   pr.blocked.Load(),
		}
	}
	var alloc []float64
	switch pol {
	case policy.ACES, policy.ACESMinFlow:
		alloc = scr.planner.PlanACES(ticks, scr.capShare)
	case policy.ACESStrictCPU:
		for i := range ticks {
			if ticks[i].Cap < ticks[i].Work {
				ticks[i].Work = ticks[i].Cap
			}
		}
		alloc = scr.planner.PlanStrict(ticks, scr.capShare)
	case policy.UDP, policy.LoadShed:
		// System 2 (and the load-shedding comparator): traditional
		// strict/velocity enforcement — unused slices are lost, no
		// banking (mirrors the simulator).
		alloc = scr.planner.PlanStrict(ticks, scr.capShare)
	default:
		// System 3: targets enforced per tick; only sleeping (blocked)
		// PEs' slices are redistributed.
		alloc = scr.planner.PlanLockStep(ticks, scr.capShare)
	}
	// The plan divided the node by forecast; what it left over is lent, up
	// to each PE's entitlement, so an interval that brings more than the
	// last one is served as it arrives instead of at the next tick.
	lend := scr.planner.Lend(ticks, scr.capShare)
	for i, pr := range peers {
		if pr.parked {
			// The breaker already advertised r_max = 0; nothing to earn,
			// grant or publish for a parked PE.
			continue
		}
		if pr.rep != 0 && tgt.slot(pr.id, pr.rep) == 0 {
			// Dormant replica: its key is in no group (installTargets
			// forgot it on deactivation), so there is nothing to publish.
			continue
		}
		pr.bucket.RefillFor(elapsedTicks)
		pr.bucket.Spend(alloc[i] * elapsedTicks)
		if pr.gGrant != nil {
			pr.gGrant.Set(alloc[i])
			pr.gLent.Set(lend[i])
		}
		// The loan rides in the same grant but is not debited here: settle
		// charges the bucket at the next tick for the part the PE used.
		pr.lent = lend[i] * dt
		if alloc[i]+lend[i] > 0 {
			pr.grant(alloc[i]*dt + pr.lent)
		}
		if pol.UsesFeedback() {
			var rmax float64
			if len(pr.downID) > 0 && c.fb.groupedAllDown(tgt.groupKeys, pr.downID) {
				// Every downstream is a failure artifact (suspect or dead
				// peers, tripped breakers). Updating the LQR against the
				// r_max = 0 picture would integrate a phantom buffer error
				// each tick and the controller would wake from the fault
				// far from its operating point — so freeze it and replay
				// the last healthy advertisement until someone recovers.
				rmax = pr.fc.Hold()
			} else {
				// Flow-controller rates stay in SDOs per nominal Δt — the
				// LQR gains were designed for that sampling period. Banked
				// token surplus folds into ρ over a short horizon, exactly
				// as in the simulator, so throttled PEs advertise the burst
				// capacity they actually hold.
				cpuRate := c.effSlot(tgt, pr.id, pr.rep, scr.safeBlend)
				if surplus := pr.bucket.Level() - cpuRate; surplus > 0 {
					cpuRate += surplus / 5
				}
				rho := cpuRate * c.cfg.Dt / costs[i]
				vac := float64(pr.buf.Cap() - pr.occupancy())
				if vac < 0 {
					vac = 0
				}
				pr.fc.SetMaxRate(vac + rho)
				rmax = pr.fc.Update(rho, float64(pr.occupancy()))
			}
			if pr.gRmax != nil {
				pr.gRmax.Set(rmax)
			}
			// Advertisements go out under the slot's key: the primary's
			// key is the PE id (pre-elastic wire compatibility), replicas
			// publish under their composite keys and the grouped bounds
			// sum them.
			c.fb.publish(pr.key, rmax)
			if c.cfg.Uplink != nil {
				// Best effort: a lost advertisement is repaired next
				// tick; peers treat silence as unconstrained only
				// before the first one arrives.
				_ = c.cfg.Uplink.SendFeedback(pr.key, rmax)
			}
		}
	}
}

// runSource injects SDOs at the arrival process's virtual schedule,
// routing each one through the target PE's replica ring (singleton for
// non-elastic targets — the pre-elastic path exactly).
func (c *Cluster) runSource(src graph.Source, proc workload.ArrivalProcess) {
	var seq uint64
	nextV := c.clock.Now()
	for {
		nextV += proc.NextInterval()
		wall := time.Duration((nextV - c.clock.Now()) / c.scale * float64(time.Second))
		if wall > 0 {
			timer := time.NewTimer(wall)
			select {
			case <-c.ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		} else if c.ctx.Err() != nil {
			return
		}
		s := sdo.SDO{
			Stream: src.Stream,
			Seq:    seq,
			Origin: time.Now(),
			Bytes:  1,
		}
		seq++
		if tr := c.tracer; tr != nil {
			if id := tr.SampleIngress(); id != 0 {
				s.Trace = id
				s.TraceEnq = c.clock.Now()
			}
		}
		ref := c.targets.Load().pick(src.Target, s)
		target := ref.pr
		if target == nil {
			// The ring elected a replica hosted by a peer process.
			if err := c.sendReplicaSDO(ref.pe, ref.rep, s); err != nil {
				c.col.inputDrop(c.clock.Now())
				c.traceDrop(s, int32(src.Target), -1, obs.EventUplinkDrop)
			}
			continue
		}
		if c.cfg.Policy == policy.LoadShed && target.buf.Len() >= shedThreshold(target.buf.Cap()) {
			c.col.inputDrop(c.clock.Now())
			c.traceDrop(s, int32(target.id), int32(target.node), obs.EventShed)
			if target.cSheds != nil {
				target.cSheds.Inc()
			}
		} else if !target.buf.TryPush(s) {
			c.col.inputDrop(c.clock.Now())
			c.traceDrop(s, int32(target.id), int32(target.node), obs.EventDrop)
		}
	}
}

// BufferLen reports PE j's current buffer occupancy (tests and demos);
// zero for PEs hosted elsewhere.
func (c *Cluster) BufferLen(j sdo.PEID) int {
	if pr := c.pes[j]; pr != nil {
		return pr.buf.Len()
	}
	return 0
}

// Local reports whether PE j is hosted by this process.
func (c *Cluster) Local(j sdo.PEID) bool {
	return int(j) >= 0 && int(j) < len(c.local) && c.local[j]
}

// InjectSDO delivers an SDO arriving from a peer process to local PE `to`,
// applying the same admission semantics a local sender would (drop on
// overflow, threshold shedding under LoadShed). Unknown or non-local
// targets are counted as in-flight loss: the peer routed it here, so the
// data existed and died.
func (c *Cluster) InjectSDO(to sdo.PEID, s sdo.SDO) {
	if s.Trace != 0 {
		// Buffer-entry times are per-process: the sender's virtual clock
		// is not ours, so the hop's enqueue stamp restarts here.
		s.TraceEnq = c.clock.Now()
	}
	if int(to) < 0 || int(to) >= len(c.pes) {
		c.col.inFlightDrop(c.clock.Now(), s.Hops)
		c.traceDrop(s, int32(to), -1, obs.EventDrop)
		return
	}
	// Logical delivery picks among the LOCAL replica slots of the target
	// (the sender either predates replica addressing or deferred the
	// choice); nil means no slot of this PE lives here.
	dst := c.targets.Load().pickLocal(to, s)
	if dst == nil {
		c.col.inFlightDrop(c.clock.Now(), s.Hops)
		c.traceDrop(s, int32(to), -1, obs.EventDrop)
		return
	}
	c.admit(dst, s)
}

// admit applies local admission semantics (threshold shedding under
// LoadShed, drop on overflow) for an SDO arriving from a peer process or
// a replica drain.
func (c *Cluster) admit(dst *peRuntime, s sdo.SDO) {
	if c.cfg.Policy == policy.LoadShed && dst.buf.Len() >= shedThreshold(dst.buf.Cap()) {
		c.col.inFlightDrop(c.clock.Now(), s.Hops)
		c.traceDrop(s, int32(dst.id), int32(dst.node), obs.EventShed)
		if dst.cSheds != nil {
			dst.cSheds.Inc()
		}
		return
	}
	if !dst.buf.TryPush(s) {
		c.col.inFlightDrop(c.clock.Now(), s.Hops)
		c.traceDrop(s, int32(dst.id), int32(dst.node), obs.EventDrop)
	}
}

// InjectFeedback records a peer PE's r_max advertisement on the local
// board, where Eq. 8 bounds for local senders will see it.
func (c *Cluster) InjectFeedback(pe int32, rmax float64) {
	c.fb.publish(pe, rmax)
}

// NoteUplinkLoss accounts an SDO dropped asynchronously by an uplink
// (outbox writer failure after the emitter already handed it off) as
// in-flight loss, mirroring what the emitter records for synchronous
// send errors. A sampled SDO's trace ends here with an uplink-drop span
// (PE/Node -1: the loss happened between processes, not inside a PE).
func (c *Cluster) NoteUplinkLoss(hops int, trace uint64) {
	c.col.inFlightDrop(c.clock.Now(), hops)
	if c.tracer != nil && trace != 0 {
		c.tracer.Record(obs.Span{
			Trace: trace, PE: -1, Node: -1, Hops: int32(hops),
			Done: c.clock.Now(), Event: obs.EventUplinkDrop,
		})
	}
}

// LinkStatsSource exposes uplink transport counters for inclusion in the
// cluster's run report.
type LinkStatsSource interface {
	LinkStats() metrics.LinkStats
}

// linkGauges are one uplink's telemetry handles: wire-level counters plus
// the batching health pair — batch_frames (KindBatch frames sent) and
// sdos_per_batch (mean member fill), the two signals that tell an operator
// whether the batched data plane is actually coalescing.
type linkGauges struct {
	sent, dropped, reconnects *obs.Gauge
	queueLen                  *obs.Gauge
	batchFrames, perBatch     *obs.Gauge
	ctlDropped                *obs.Gauge
}

// AttachLink registers an uplink whose counters should appear in this
// cluster's reports (ResilientLink.Serve attaches itself). With Telemetry
// configured, each link also gets live gauges keyed by attach order.
func (c *Cluster) AttachLink(s LinkStatsSource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.links {
		if have == s {
			return
		}
	}
	c.links = append(c.links, s)
	if c.reg != nil {
		labels := obs.Labels{"link": fmt.Sprintf("%d", len(c.links)-1)}
		c.linkGauges = append(c.linkGauges, linkGauges{
			sent:        c.reg.Gauge("link_frames_sent", labels),
			dropped:     c.reg.Gauge("link_frames_dropped", labels),
			reconnects:  c.reg.Gauge("link_reconnects", labels),
			queueLen:    c.reg.Gauge("link_queue_len", labels),
			batchFrames: c.reg.Gauge("batch_frames", labels),
			perBatch:    c.reg.Gauge("sdos_per_batch", labels),
			ctlDropped:  c.reg.Gauge("control_frames_dropped_total", labels),
		})
	}
}

// sampleLinks refreshes the per-link gauges from live transport counters;
// the snapshot-owning scheduler calls it just before the registry flush.
func (c *Cluster) sampleLinks() {
	c.mu.Lock()
	links := c.links
	gauges := c.linkGauges
	c.mu.Unlock()
	for i := range gauges {
		s := links[i].LinkStats()
		g := gauges[i]
		g.sent.Set(float64(s.FramesSent))
		g.dropped.Set(float64(s.FramesDropped))
		g.reconnects.Set(float64(s.Reconnects))
		g.queueLen.Set(float64(s.QueueLen))
		g.batchFrames.Set(float64(s.BatchesSent))
		g.ctlDropped.Set(float64(s.ControlDropped))
		fill := 0.0
		if s.BatchesSent > 0 {
			fill = float64(s.BatchedFrames) / float64(s.BatchesSent)
		}
		g.perBatch.Set(fill)
	}
}

// Now returns the cluster's current virtual time.
func (c *Cluster) Now() float64 { return c.clock.Now() }

// Report freezes the metrics collected so far (end-of-run time `now` in
// virtual seconds). Run calls it implicitly; partitioned deployments using
// Start/Stop call it per process.
func (c *Cluster) Report(now float64) metrics.Report {
	rep := c.col.finalize(now)
	c.mu.Lock()
	links := append([]LinkStatsSource(nil), c.links...)
	c.mu.Unlock()
	for _, l := range links {
		rep.Links = append(rep.Links, l.LinkStats())
	}
	if c.det != nil {
		for _, m := range c.det.Snapshot() {
			silence := now - m.LastBeat
			if silence < 0 {
				silence = 0
			}
			rep.Members = append(rep.Members, metrics.MemberStatus{
				Node: m.Peer, State: m.StateName, SilenceS: silence,
			})
		}
	}
	for _, pr := range c.prs {
		rep.PERestarts += pr.restarts.Load()
		if pr.breaker.Load() {
			rep.BreakersOpen++
		}
	}
	ts := c.targets.Load()
	rep.TargetEpoch = ts.epoch
	rep.TargetTerm = ts.term
	rep.FencedFrames = c.fenced.Load()
	rep.Retargets = c.retargets.Load()
	rep.SolveMillis = c.LastSolveMillis()
	rep.TargetFramesSent = c.framesSent.Load()
	rep.TargetEpochLag = c.EpochLag()
	for j := range c.replicas {
		if n := c.ActiveReplicas(sdo.PEID(j)); n > rep.ActiveReplicas {
			rep.ActiveReplicas = n
		}
	}
	return rep
}

// DeliveredByPE returns post-warmup egress SDO counts per PE (zero for
// non-egress and non-local PEs) — parity with the simulator's method.
func (c *Cluster) DeliveredByPE() []int64 {
	out := make([]int64, len(c.delivered))
	for i := range c.delivered {
		out[i] = c.delivered[i].Load()
	}
	return out
}
