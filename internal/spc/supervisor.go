package spc

import (
	"math/rand"
	"sync/atomic"
	"time"

	"aces/internal/health"
	"aces/internal/obs"
	"aces/internal/policy"
	"aces/internal/sdo"
)

// SupervisorOptions tunes PE panic recovery. The zero value picks usable
// defaults via Config.fillDefaults.
type SupervisorOptions struct {
	// MaxRestarts is how many panic recoveries a PE gets before its
	// circuit breaker trips (default 5). On trip the PE is parked: its
	// token bucket stops earning and the node's planner redistributes the
	// share to co-located PEs, while r_max = 0 is advertised so upstreams
	// route flow to live replicas.
	MaxRestarts int
	// BackoffMin and BackoffMax bound the jittered exponential restart
	// backoff, in wall time (defaults 10ms, 1s). Virtual time keeps
	// running while a PE waits out its backoff — a restarting PE is a
	// fault, not a clock stop.
	BackoffMin, BackoffMax time.Duration
}

func (o *SupervisorOptions) fillDefaults() {
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 5
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 10 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = time.Second
		if o.BackoffMax < o.BackoffMin {
			o.BackoffMax = o.BackoffMin
		}
	}
}

// HealthConfig enables heartbeat membership for a partitioned deployment.
// All durations are virtual seconds; zero fields are defaulted from Dt.
type HealthConfig struct {
	// Every is the heartbeat period (default 10·Dt).
	Every float64
	// SuspectAfter is the silence after which a peer node turns suspect
	// (default 3·Every). A suspect node's PEs are treated as r_max = 0.
	SuspectAfter float64
	// DeadAfter is the silence after which a suspect node is declared
	// dead (default 2·SuspectAfter).
	DeadAfter float64
}

func (h *HealthConfig) fillDefaults(dt float64) {
	if h.Every <= 0 {
		h.Every = 10 * dt
	}
	if h.SuspectAfter <= 0 {
		h.SuspectAfter = 3 * h.Every
	}
	if h.DeadAfter <= h.SuspectAfter {
		h.DeadAfter = 2 * h.SuspectAfter
	}
}

// runPE supervises one PE goroutine for the cluster's lifetime: each
// panic is recovered, the PE restarts — against the SAME input buffer, so
// queued SDOs survive the crash — after a jittered exponential backoff,
// and after MaxRestarts recoveries the circuit breaker trips and the PE
// is parked. Orderly exits (shutdown, processor error) end supervision.
func (c *Cluster) runPE(pr *peRuntime) {
	so := c.cfg.Supervisor
	// Per-PE seeded jitter: deterministic schedules stay deterministic,
	// and co-located PEs crashed by the same fault do not restart in
	// lockstep.
	rng := rand.New(rand.NewSource(c.cfg.Seed ^ (int64(pr.key)+1)*0x5851F42D4C957F2D))
	backoff := so.BackoffMin
	for {
		panicked := c.runPEOnce(pr)
		if !panicked {
			return
		}
		n := pr.restarts.Add(1)
		if pr.cRestarts != nil {
			pr.cRestarts.Inc()
		}
		if n > int64(so.MaxRestarts) {
			// Trip the breaker. The node scheduler observes the flag on
			// its next tick: it zeroes the token-bucket rate, marks the
			// PE blocked so the planner redistributes its share, and
			// advertises r_max = 0 upstream.
			pr.breaker.Store(true)
			return
		}
		d := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		backoff *= 2
		if backoff > so.BackoffMax {
			backoff = so.BackoffMax
		}
		select {
		case <-c.ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// runPEOnce is one PE incarnation: pop, wait for budget, process, emit,
// until shutdown (panicked=false) or a processor panic (panicked=true).
// The SDO being processed when a panic fires is accounted as in-flight
// loss — it died mid-service — but the buffer and its queued SDOs are
// untouched, so the restarted incarnation resumes exactly where this one
// crashed.
func (c *Cluster) runPEOnce(pr *peRuntime) (panicked bool) {
	var cur sdo.SDO
	holding := false
	defer func() {
		if r := recover(); r == nil {
			return
		}
		panicked = true
		pr.held.Store(0)
		if holding {
			c.col.inFlightDrop(c.clock.Now(), cur.Hops)
			c.traceDrop(cur, int32(pr.id), int32(pr.node), obs.EventPanic)
		}
	}()
	emit := c.emitter(pr)
	for {
		s, ok := pr.buf.Pop(c.ctx)
		if !ok {
			return false
		}
		cur, holding = s, true
		pr.held.Store(1)
		var deq float64
		if s.Trace != 0 {
			deq = c.clock.Now()
		}
		cost := pr.cost(c.clock.Now())

		// Wait until the scheduler has granted enough budget. The cost is
		// re-sampled at every grant: the two-state model modulates the
		// PE's processing *rate*, so an SDO whose wait spans a state flip
		// is charged the price of the regime that actually processes it —
		// the same fluid semantics the simulator and the tier-1 model use.
		// Freezing the pop-time price would silently push a PE's capacity
		// from the harmonic mean toward the arithmetic mean of the state
		// costs (≈ 3× lower with the paper's T0/T1).
		pr.mu.Lock()
		for pr.budget < cost {
			if c.ctx.Err() != nil {
				pr.mu.Unlock()
				pr.held.Store(0)
				return false
			}
			pr.cond.Wait()
			pr.mu.Unlock()
			cost = pr.cost(c.clock.Now())
			pr.mu.Lock()
		}
		pr.budget -= cost
		// The spent budget doubles as the calibration signal: CPU actually
		// burned (not granted) and SDOs actually processed are exactly the
		// (c, r) pair the rate-model estimator regresses over.
		pr.calAccumulate(cost)
		pr.mu.Unlock()

		var start time.Time
		if pr.model == nil {
			start = time.Now()
		}
		if err := pr.proc.Process(s, emit); err != nil {
			// A failing processor stops its PE; the rest of the graph keeps
			// running (§IV: the system degrades, it does not collapse).
			pr.held.Store(0)
			return false
		}
		if pr.model == nil {
			d := nowDuration(time.Since(start), c.scale)
			pr.mu.Lock()
			pr.mcost.observe(d)
			pr.mu.Unlock()
		}
		if s.Trace != 0 && c.tracer != nil {
			// One span per hop: buffer entry, service start, completion.
			// Egress PEs mark the trace terminal (their emit callback has
			// already recorded the delivery metrics).
			ev := obs.EventProcessed
			if pr.egress {
				ev = obs.EventEgress
			}
			c.tracer.Record(obs.Span{
				Trace: s.Trace, PE: int32(pr.id), Node: int32(pr.node), Hops: int32(s.Hops),
				Enqueue: s.TraceEnq, Dequeue: deq, Done: c.clock.Now(), Event: ev,
			})
		}
		pr.held.Store(0)
		holding = false
	}
}

// PanicInjector wraps a Processor with an armable crash: each Arm call
// schedules one panic, fired at the start of the next Process call. The
// chaos harness uses it to kill a PE at a scheduled virtual time and watch
// the supervisor bring it back.
type PanicInjector struct {
	inner Processor
	armed atomic.Int32
}

// NewPanicInjector wraps inner (which may itself be a CostModeler; cost
// modelling is forwarded when it is).
func NewPanicInjector(inner Processor) *PanicInjector {
	return &PanicInjector{inner: inner}
}

// Arm schedules one panic on the next Process call. Multiple Arm calls
// stack: each one crashes one future incarnation.
func (p *PanicInjector) Arm() { p.armed.Add(1) }

// Armed reports the number of pending crashes.
func (p *PanicInjector) Armed() int { return int(p.armed.Load()) }

// Process implements Processor, panicking if armed.
func (p *PanicInjector) Process(in sdo.SDO, emit func(sdo.SDO)) error {
	for {
		n := p.armed.Load()
		if n <= 0 {
			break
		}
		if p.armed.CompareAndSwap(n, n-1) {
			panic("spc: injected PE fault")
		}
	}
	return p.inner.Process(in, emit)
}

// NextCost implements CostModeler, delegating to the wrapped processor
// when it models costs and charging a nominal 50µs otherwise (keeps the
// chaos harness off the measured-cost path, which needs wall-time
// calibration).
func (p *PanicInjector) NextCost(now float64) float64 {
	if m, ok := p.inner.(CostModeler); ok {
		return m.NextCost(now)
	}
	return 50e-6
}

// parkPE applies a tripped circuit breaker (scheduler goroutine only):
// the last grant is settled, the token bucket stops earning and is drained
// — the planner sees the PE blocked, so the share flows to co-located PEs
// — and r_max = 0 goes on the local board and over the uplink so upstreams
// route around the corpse instead of treating its silence as
// unconstrained.
func (c *Cluster) parkPE(pr *peRuntime, pol policy.Policy) {
	pr.parked = true
	// The tick skips a parked PE before its settlement, so its last grant
	// is closed here or never: no budget and no loan outlive the breaker.
	c.settle(pr, 0)
	pr.bucket.SetRate(0)
	pr.bucket.Spend(pr.bucket.Level())
	c.fb.markDown(pr.key, true)
	if pol.UsesFeedback() {
		c.fb.publish(pr.key, 0)
		if pr.gRmax != nil {
			pr.gRmax.Set(0)
		}
		if c.cfg.Uplink != nil {
			_ = c.cfg.Uplink.SendFeedback(pr.key, 0)
		}
	}
	if pr.gBreaker != nil {
		pr.gBreaker.Set(1)
	}
}

// InjectHeartbeat records a liveness beacon from a peer process's node
// (transport Serve loops call it for KindHeartbeat frames). No-op when
// health is not configured.
func (c *Cluster) InjectHeartbeat(node int32) {
	if c.det != nil {
		c.det.Beat(node, c.clock.Now())
	}
}

// PEHealth is one local PE replica slot's supervision status.
type PEHealth struct {
	PE          int32 `json:"pe"`
	Rep         int32 `json:"rep,omitempty"`
	Node        int32 `json:"node"`
	Restarts    int64 `json:"restarts"`
	BreakerOpen bool  `json:"breaker_open"`
}

// HealthStatus is the cluster's failure-domain snapshot, served by the
// /debug/health endpoint and asserted by the chaos harness.
type HealthStatus struct {
	// Now is the virtual time of the snapshot.
	Now float64 `json:"now"`
	// AllAlive reports whether every tracked peer node is alive (true
	// when health is not configured: no evidence of trouble).
	AllAlive bool `json:"all_alive"`
	// Members lists tracked peer nodes and their membership verdicts.
	Members []health.PeerStatus `json:"members,omitempty"`
	// PEs lists local PEs with their restart and breaker state.
	PEs []PEHealth `json:"pes"`
}

// Health snapshots the failure domain: membership verdicts, per-PE
// restart counts and breaker flags.
func (c *Cluster) Health() HealthStatus {
	st := HealthStatus{Now: c.clock.Now(), AllAlive: true}
	if c.det != nil {
		st.Members = c.det.Snapshot()
		st.AllAlive = c.det.AllAlive()
	}
	for _, pr := range c.prs {
		st.PEs = append(st.PEs, PEHealth{
			PE: int32(pr.id), Rep: pr.rep, Node: int32(pr.node),
			Restarts:    pr.restarts.Load(),
			BreakerOpen: pr.breaker.Load(),
		})
	}
	return st
}

// sendHeartbeats emits one beacon per local node over the uplink. Owned
// by the snapshot node's scheduler; best effort, like feedback — a lost
// beacon is repaired by the next one. An uplink without ControlSender
// never asserts liveness; the cluster still judges peers by the beats it
// receives.
func (c *Cluster) sendHeartbeats() {
	if c.ctl == nil {
		return
	}
	for _, n := range c.localNodeIDs {
		c.hbSeq++
		_ = c.ctl.SendHeartbeat(n, c.hbSeq)
	}
}
