package experiments

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"aces/internal/chaos"
	"aces/internal/graph"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/transport"
)

// FailoverOptions scales E14, the control-plane fault-tolerance
// experiment: the E11 topology is deployed across THREE processes wired
// as a dissemination chain (A root → B relay → C leaf), the controller
// process A is killed mid-run by a seeded chaos script, and the standby
// on B must notice the silence, claim the next controller term,
// warm-start the adaptive loop, and still absorb the cost step that
// lands after the takeover. A baseline run with no kill (B adaptive
// throughout) bounds what an uninterrupted control plane achieves. The
// zero value picks defaults.
type FailoverOptions struct {
	// Seed drives workloads and sources.
	Seed int64
	// TimeScale is the virtual-over-wall speedup (default 10; 3 under the
	// race detector, as in E11).
	TimeScale float64
	// KillAt is when the controller process dies, virtual seconds
	// (default 4; must exceed the warmup of 1 and precede StepAt).
	KillAt float64
	// StepAt is when the cost step lands (default 6 — after the standby
	// has taken over, so adaptation is the NEW controller's problem).
	StepAt float64
	// Post is the observation horizon after the step (default 14).
	Post float64
	// Window is the throughput-measurement window (default 2).
	Window float64
	// Every is the adaptive loop's re-solve period (default 0.5) — also
	// the controller's frame cadence, i.e. the standby's liveness signal.
	Every float64
	// StepFactor multiplies the stepped PE's cost (default 4).
	StepFactor float64
	// SilenceAfter is the standby's takeover deadline in virtual seconds
	// of controller silence (default 1.0 = 2×Every: one lost frame is
	// routine, two is a dead controller).
	SilenceAfter float64
}

func (o *FailoverOptions) fillDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TimeScale <= 0 {
		o.TimeScale = drillTimeScale()
	}
	if o.KillAt <= 1 {
		o.KillAt = 4
	}
	if o.StepAt <= o.KillAt {
		o.StepAt = o.KillAt + 2
	}
	if o.Post <= 0 {
		o.Post = 14
	}
	if o.Window <= 0 {
		o.Window = 2
	}
	if o.Every <= 0 {
		o.Every = 0.5
	}
	if o.StepFactor <= 1 {
		o.StepFactor = 4
	}
	if o.SilenceAfter <= 0 {
		o.SilenceAfter = 2 * o.Every
	}
}

// FailoverRow is one E14 outcome. Rates are weighted egress deliveries
// per virtual second over the final window, counted over the PEs the
// surviving processes host (node 1: the stepped weight-8 PE and its
// weight-1 neighbour) so the dead process's own egress does not blur
// the control-plane comparison.
type FailoverRow struct {
	Seed   int64   `json:"seed"`
	KillAt float64 `json:"kill_at"`
	StepAt float64 `json:"step_at"`
	// TookOver is whether the standby claimed a controller term at all,
	// and ClaimTerm/ClaimAt say which term and when (standby clock).
	TookOver  bool    `json:"took_over"`
	ClaimTerm uint64  `json:"claim_term"`
	ClaimAt   float64 `json:"claim_at"`
	// MissedEpochs is the controller silence the standby rode out before
	// claiming, in units of the frame cadence (Every).
	MissedEpochs float64 `json:"missed_epochs"`
	// BaselineRate is the final-window weighted rate of the no-kill run;
	// FailoverRate the same measurement with the controller killed;
	// FailoverFrac their ratio.
	BaselineRate float64 `json:"baseline_rate"`
	FailoverRate float64 `json:"failover_rate"`
	FailoverFrac float64 `json:"failover_frac"`
	// LeafTerm is the term the tree leaf ended on (= ClaimTerm proves the
	// takeover disseminated through the relay to the whole tree).
	LeafTerm uint64 `json:"leaf_term"`
	// Fenced counts deposed-term frames the survivors rejected after the
	// takeover — nonzero proves the fencing rule, not luck, protects the
	// new term against the ex-controller's ghost (the harness injects
	// zombie frames with epochs far ABOVE the takeover epoch, so plain
	// epoch ordering would have accepted them).
	Fenced int64 `json:"fenced"`
	// Recovered is the verdict: the standby took over after the kill
	// within 3 missed epochs, the takeover reached the leaf, zombie
	// frames were fenced, and the final-window throughput reached ≥ 90%
	// of the uninterrupted baseline.
	Recovered bool `json:"recovered"`
}

// failoverOutcome carries one run's control-plane telemetry out of the
// harness.
type failoverOutcome struct {
	tookOver     bool
	claimTerm    uint64
	claimAt      float64
	missedEpochs float64
	leafTerm     uint64
	fenced       int64
}

// failoverRun deploys the three-process chain and runs it to the
// horizon. With kill=false process B closes the adaptive loop from the
// start (the baseline); with kill=true process A is the controller, B a
// rank-0 standby, and a seeded chaos script kills A at KillAt.
func failoverRun(o FailoverOptions, topo *graph.Topology, cpu []float64, kill bool) (s series, out failoverOutcome, err error) {
	fail := func(e error) (series, failoverOutcome, error) {
		return nil, failoverOutcome{}, e
	}
	// One listener per process pair; the dial side never owns a listener
	// so killing A can close every A-side endpoint in one place.
	lisAB, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer lisAB.Close()
	lisAC, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer lisAC.Close()
	lisBC, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer lisBC.Close()
	accept := func(l *transport.Listener) *spc.ResilientLink {
		return spc.NewResilientLink(func() (*transport.Conn, error) { return l.Accept() }, drillLinkOpts)
	}
	dialTo := func(l *transport.Listener) *spc.ResilientLink {
		addr := l.Addr()
		return spc.NewResilientLink(func() (*transport.Conn, error) {
			return transport.Dial(addr, time.Second)
		}, drillLinkOpts)
	}
	linkAB := accept(lisAB) // A ↔ B, A side
	linkAC := accept(lisAC) // A ↔ C, A side
	linkBA := dialTo(lisAB) // A ↔ B, B side
	linkBC := accept(lisBC) // B ↔ C, B side
	linkCA := dialTo(lisAC) // A ↔ C, C side
	linkCB := dialTo(lisBC) // B ↔ C, C side
	links := []*spc.ResilientLink{linkAB, linkAC, linkBA, linkBC, linkCA, linkCB}
	defer func() {
		for _, l := range links {
			l.Close()
		}
	}()

	routerA := spc.NewRouter()
	routerA.AddPeer(linkAB)
	routerA.AddPeer(linkAC, 3) // PE0 → PE3 crosses A → C
	routerB := spc.NewRouter()
	routerB.AddPeer(linkBA, 0)
	routerB.AddPeer(linkBC, 3)
	routerC := spc.NewRouter()
	routerC.AddPeer(linkCA, 0) // PE3's flow-control feedback → PE0's host
	routerC.AddPeer(linkCB)

	stepped := topo.PEs[1].Service.EffectiveCost()
	a, err := spc.NewCluster(spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
		LocalNodes: []sdo.NodeID{0}, Uplink: routerA,
	})
	if err != nil {
		return fail(err)
	}
	b, err := spc.NewCluster(spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
		LocalNodes: []sdo.NodeID{1}, Uplink: routerB,
		Processors: map[sdo.PEID]spc.Processor{
			1: spc.NewStepCost(201, stepped, o.StepFactor*stepped, o.StepAt),
		},
	})
	if err != nil {
		return fail(err)
	}
	c, err := spc.NewCluster(spc.Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu,
		TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
		LocalNodes: []sdo.NodeID{2}, Uplink: routerC,
	})
	if err != nil {
		return fail(err)
	}
	// Dissemination chain: A fans to B only; B relays to C and acks to A;
	// C acks to B. After the kill, the B → C edge is the whole tree.
	a.EnableHierRelay(0, nil, linkAB)
	b.EnableHierRelay(1, linkBA, linkBC)
	c.EnableHierRelay(2, linkCB)

	var serveWG sync.WaitGroup
	serve := func(l *spc.ResilientLink, cl *spc.Cluster) {
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			_ = l.Serve(cl)
		}()
	}
	serve(linkAB, a)
	serve(linkAC, a)
	serve(linkBA, b)
	serve(linkBC, b)
	serve(linkCA, c)
	serve(linkCB, c)

	rc := spc.RetargetConfig{Every: o.Every, Lambda: 0.7, MinSamples: 4}
	var claimAt atomic.Uint64 // float64 bits of the standby clock at claim
	var claimTerm atomic.Uint64
	var missed atomic.Uint64 // float64 bits
	if kill {
		if err := a.StartRetarget(rc); err != nil {
			return fail(err)
		}
		if err := b.StartFailover(spc.FailoverConfig{
			Rank:         0,
			SilenceAfter: o.SilenceAfter,
			CheckEvery:   o.SilenceAfter / 8,
			Retarget:     rc,
			OnClaim: func(term uint64) {
				now := b.Now()
				claimTerm.Store(term)
				claimAt.Store(math.Float64bits(now))
				missed.Store(math.Float64bits((now - b.LastControllerFrame()) / o.Every))
			},
		}); err != nil {
			return fail(err)
		}
	} else {
		if err := b.StartRetarget(rc); err != nil {
			return fail(err)
		}
	}
	if err := a.Start(); err != nil {
		return fail(err)
	}
	if err := b.Start(); err != nil {
		return fail(err)
	}
	if err := c.Start(); err != nil {
		return fail(err)
	}

	// The kill is a scripted chaos fault, not an ad-hoc teardown: the
	// schedule replays at the same virtual time for the same options.
	var aStopped atomic.Bool
	killA := func(proc int32) {
		if proc != 0 || !aStopped.CompareAndSwap(false, true) {
			return
		}
		a.Stop()
		lisAB.Close()
		lisAC.Close()
		linkAB.Close()
		linkAC.Close()
	}
	runner := chaos.NewRunner(chaos.Schedule{Events: []chaos.Event{
		{At: o.KillAt, Kind: chaos.KillProcess, Target: 0},
	}})
	injector := chaos.FuncInjector{OnKillProcess: killA}

	// Sample the weighted cumulative egress of the SURVIVING processes'
	// PEs on B's virtual clock: B hosts node 1 only, so its deliveries are
	// exactly those PEs'.
	horizon := o.StepAt + o.Post
	zombieSent := false
	for {
		now := b.Now()
		if kill {
			runner.Step(now, injector)
		}
		// Once the standby holds the term, let the deposed controller's
		// ghost speak: inject term-0 frames with an epoch far above the
		// takeover epoch into both survivors. Lexicographic fencing must
		// reject them; epoch ordering alone would not.
		if kill && !zombieSent && claimTerm.Load() > 0 {
			b.InjectTermTargets(0, 1<<20, column(cpu))
			c.InjectTermTargets(0, 1<<20, column(cpu))
			zombieSent = true
		}
		s = append(s, sample{t: now, n: weighted(topo, b.DeliveredByPE())})
		if now >= horizon {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	out = failoverOutcome{
		tookOver:     claimTerm.Load() > 0,
		claimTerm:    claimTerm.Load(),
		claimAt:      math.Float64frombits(claimAt.Load()),
		missedEpochs: math.Float64frombits(missed.Load()),
		leafTerm:     c.TargetsTerm(),
		fenced:       b.FencedFrames() + c.FencedFrames(),
	}
	if !aStopped.Load() {
		a.Stop()
	}
	b.Stop()
	c.Stop()
	lisAB.Close()
	lisAC.Close()
	lisBC.Close()
	for _, l := range links {
		l.Close()
	}
	serveWG.Wait()
	return s, out, nil
}

// RunFailover executes E14 once: deploy the three-process chain with
// tier-1 targets from the declared models, kill the controller process
// at KillAt, land the cost step at StepAt, and compare the final-window
// weighted throughput against an identical run whose control plane was
// never interrupted. The verdict demands a timely takeover (≤ 3 missed
// epochs after the kill), tree-wide term dissemination, proof that
// deposed-term frames are fenced, and ≥ 90% of the baseline rate.
func RunFailover(o FailoverOptions) (FailoverRow, error) {
	o.fillDefaults()
	topo, err := retargetTopo()
	if err != nil {
		return FailoverRow{}, err
	}
	deployed, err := optimize.Solve(topo, optimize.Config{})
	if err != nil {
		return FailoverRow{}, err
	}

	row := FailoverRow{Seed: o.Seed, KillAt: o.KillAt, StepAt: o.StepAt}
	base, _, err := failoverRun(o, topo, deployed.CPU, false)
	if err != nil {
		return row, err
	}
	failed, out, err := failoverRun(o, topo, deployed.CPU, true)
	if err != nil {
		return row, err
	}

	horizon := o.StepAt + o.Post
	row.BaselineRate = base.rate(horizon-o.Window, horizon)
	row.FailoverRate = failed.rate(horizon-o.Window, horizon)
	if row.BaselineRate > 0 {
		row.FailoverFrac = row.FailoverRate / row.BaselineRate
	}
	row.TookOver = out.tookOver
	row.ClaimTerm = out.claimTerm
	row.ClaimAt = out.claimAt
	row.MissedEpochs = out.missedEpochs
	row.LeafTerm = out.leafTerm
	row.Fenced = out.fenced
	row.Recovered = row.TookOver &&
		row.ClaimAt > row.KillAt &&
		row.MissedEpochs <= 3 &&
		row.LeafTerm == row.ClaimTerm &&
		row.Fenced > 0 &&
		row.FailoverFrac >= 0.90
	return row, nil
}
