// Online retargeting: the runtime half of the paper's adaptive loop.
// Tier 1 solves for CPU targets c̄_j once at deployment; this file lets it
// re-solve against *measured* rate models and push the new targets into a
// live cluster without draining a buffer or restarting a PE. Targets are
// epoch-numbered: every dissemination carries the epoch of the solve that
// produced it, receivers reject anything not strictly newer, and the Δt
// schedulers apply a new epoch at the top of their next tick by adjusting
// token-bucket rates in place — the data plane never notices.
package spc

import (
	"errors"
	"fmt"
	"math"
	"time"

	"aces/internal/optimize"
)

// targetSet is an immutable epoch-stamped CPU target vector. The cluster
// holds the current one in an atomic pointer: schedulers load it once per
// tick (no lock, no allocation) and the control plane swaps in whole new
// sets, so a tick sees either the old targets or the new ones, never a
// half-written mix.
type targetSet struct {
	// term is the controller term that originated this set; epochs are
	// ordered lexicographically by (term, epoch), so a failover claim
	// (term+1) outranks ANY epoch of the deposed controller — the fencing
	// rule that makes a zombie ex-controller harmless.
	term  uint64
	epoch uint64
	// cpu holds the LOGICAL per-PE targets (sum over replica slots).
	cpu []float64
	// rep holds the per-replica-slot targets; nil for a set installed
	// through the logical path (everything runs on the primaries).
	rep [][]float64
	// route[j] is PE j's replica routing ring (singleton for one active
	// slot); groupKeys[j] the feedback keys of its ACTIVE slots, which the
	// grouped Eq. 8 bounds sum. Both are built locally by makeTargetSet —
	// ring entries hold this process's runtime pointers.
	route     [][]replicaRef
	groupKeys [][]int32
	// nodeSum[n] is the sum of this set's slot targets over the local PE
	// slots hosted on node n. Sharded schedulers divide it into their
	// planning-capacity shares at epoch fold-in; a single-shard node never
	// reads it.
	nodeSum []float64
}

// ErrStaleEpoch reports a SetTargets whose epoch is not strictly newer
// than the applied one — a late or duplicate dissemination, dropped so an
// out-of-order frame can never roll the cluster back to old targets.
var ErrStaleEpoch = errors.New("spc: stale target epoch")

// ErrDeposedTerm reports a target set carrying an OLDER controller term
// than the applied one: a deposed (zombie, partitioned) ex-controller is
// still disseminating. It wraps ErrStaleEpoch — a deposed frame is a
// stale frame with a name — so every errors.Is(err, ErrStaleEpoch) site
// treats it as routine; fencing is additionally counted in FencedFrames.
var ErrDeposedTerm = fmt.Errorf("spc: deposed controller term: %w", ErrStaleEpoch)

// TargetsEpoch returns the epoch of the currently applied target set
// (0 = the deployment-time targets from Config.CPU).
func (c *Cluster) TargetsEpoch() uint64 { return c.targets.Load().epoch }

// TargetsTerm returns the controller term of the currently applied
// target set (0 = the deployment-time controller).
func (c *Cluster) TargetsTerm() uint64 { return c.targets.Load().term }

// Targets returns the applied epoch and a copy of its CPU target vector.
func (c *Cluster) Targets() (uint64, []float64) {
	ts := c.targets.Load()
	return ts.epoch, append([]float64(nil), ts.cpu...)
}

// Retargets returns how many target epochs this process has accepted.
func (c *Cluster) Retargets() int64 { return c.retargets.Load() }

// SetTargets applies a new CPU target vector under the given epoch and
// broadcasts it to peer processes (when the uplink is a ControlSender). The
// epoch must be strictly greater than the applied one; stale epochs return
// ErrStaleEpoch and change nothing. The set is stamped with this process's
// controller term (0 until ClaimControl raises it). Application is
// hitless: node schedulers fold the new rates into their token buckets on
// the next tick, buffers and in-flight SDOs are untouched, and no PE
// restarts.
func (c *Cluster) SetTargets(epoch uint64, cpu []float64) error {
	if err := c.applyTargets(c.ctrlTerm.Load(), epoch, cpu); err != nil {
		return err
	}
	c.broadcastTargets()
	return nil
}

// InjectTermTargets applies a target set received from a peer process.
// Stale epochs and deposed terms are dropped silently — re-dissemination
// makes duplicates routine, not errors — and nothing is re-broadcast
// toward flat peers (the coordinator owns dissemination; echoing would
// make target storms). A tree relay is the exception: a FRESH epoch is
// pushed on to this process's children, and every received frame (fresh
// or stale) is acked upward so the parent tracks the subtree's applied
// epoch.
func (c *Cluster) InjectTermTargets(term, epoch uint64, cpu []float64) {
	c.noteCtrlFrame(term)
	err := c.applyTargets(term, epoch, cpu)
	if err != nil && !errors.Is(err, ErrStaleEpoch) {
		// Malformed vectors from a peer are a deployment bug worth a trace
		// in telemetry, but never worth crashing the data plane over.
		if c.reg != nil {
			c.reg.Counter("retarget_rejects_total", nil).Inc()
		}
		return
	}
	if err == nil {
		c.relayTargetsDown()
		c.updateEpochLag()
	}
	c.ackTargetsUp()
}

// noteCtrlFrame refreshes the controller-liveness clock that failover
// watchers and the tree-repair silence check read. Frames from a DEPOSED
// term are excluded: a zombie ex-controller's chatter must not convince a
// standby that the control plane is alive.
func (c *Cluster) noteCtrlFrame(term uint64) {
	if term >= c.targets.Load().term {
		c.lastCtrlFrame.Store(math.Float64bits(c.clock.Now()))
	}
}

// applyTargets validates and swaps in a new LOGICAL target set. A logical
// epoch collapses every replica group onto its primary (a flat coordinator
// wins outright — the (term, epoch) order is the only authority); slots
// the collapse deactivates are forgotten on the feedback board and drained
// by their node schedulers exactly as an elastic scale-in would.
func (c *Cluster) applyTargets(term, epoch uint64, cpu []float64) error {
	if len(cpu) != len(c.pes) {
		return fmt.Errorf("spc: target vector has %d entries, topology has %d PEs", len(cpu), len(c.pes))
	}
	clean := make([]float64, len(cpu))
	for j, v := range cpu {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("spc: target for PE %d is %v", j, v)
		}
		clean[j] = v
	}
	return c.installTargets(c.makeTargetSet(term, epoch, clean, nil))
}

// applyEpoch re-tunes one node's token buckets to a new target epoch. The
// node scheduler calls it at the top of a tick, so the scheduler-owned
// bucket state is safe to touch. Parked PEs are skipped — the breaker owns
// their (zero) rate; if a later recovery unparks one it rejoins at
// whatever epoch is then current. SetRate preserves each bucket's level
// and burst horizon, so banked entitlement survives the retune: the
// application is a rate change, not a reset.
func (c *Cluster) applyEpoch(peers []*peRuntime, tgt *targetSet) {
	for _, pr := range peers {
		slot := tgt.slot(pr.id, pr.rep)
		if !pr.parked {
			pr.bucket.SetRate(slot)
		}
		if pr.gTarget != nil {
			pr.gTarget.Set(slot)
		}
		if pr.rep != 0 {
			// Scale-in / migration half of an epoch: a replica slot whose
			// target just dropped to zero hands its queued SDOs to the
			// replicas the new epoch's ring elects.
			active := slot > 0
			if pr.wasActive && !active {
				// The tick skips a dormant slot before its settlement, so
				// the slot's last grant goes back into its bucket here:
				// asleep it holds the drain's grant and nothing else, and a
				// later activation starts from the bucket alone.
				c.settle(pr, 0)
				c.drainReplica(pr, tgt)
			}
			if active && !pr.wasActive {
				// What the slot admitted before going dormant (or had
				// drained back into it) is not the arrival rate of its
				// first active interval. Nor is what is left of the drain's
				// grant entitlement: it was never debited, so it is dropped
				// rather than settled, and the slot starts from its bucket.
				pr.admitSeen = pr.buf.Admitted()
				pr.reclaim(0, 0)
			}
			pr.wasActive = active
		}
	}
}

// BroadcastTargets re-disseminates the applied target set to peers. Safe
// to call any time: receivers drop stale epochs, so repetition only
// repairs losses and late-joining peers — call it after a peer reconnects
// if no periodic retarget loop is running to do it for you.
func (c *Cluster) BroadcastTargets() { c.broadcastTargets() }

func (c *Cluster) broadcastTargets() {
	// A tree position overrides the flat fan-out: the root (or a relay
	// that originated an epoch, e.g. a concurrent retarget loop) pushes to
	// its children and lets each relay push onward, instead of addressing
	// every peer itself.
	if c.hierEnabled() {
		c.relayTargetsDown()
		return
	}
	if c.ctl != nil {
		// Best effort by contract: the next periodic broadcast repairs a loss.
		_ = sendTargetsTo(c.ctl, c.targets.Load())
	}
}

// calAccumulate charges one processed SDO to the PE's calibration window.
// Called at the budget-spend site with pr.mu held.
func (pr *peRuntime) calAccumulate(cost float64) {
	pr.calCPU += cost
	pr.calN++
}

// calSample closes the PE's calibration window at virtual time now,
// folding the spent CPU and processed count into the window trackers over
// the *measured* elapsed time (TickFor) — the scheduler that drives it
// runs on OS timers that slip, and rating a late window over the nominal
// interval would bias the model by exactly the slip factor.
func (pr *peRuntime) calSample(now float64) {
	pr.mu.Lock()
	elapsed := now - pr.calLast
	pr.calLast = now
	pr.trkCPU.Observe(pr.calCPU)
	pr.trkRate.Observe(pr.calN)
	pr.calCPU, pr.calN = 0, 0
	pr.trkCPU.TickFor(elapsed)
	pr.trkRate.TickFor(elapsed)
	pr.mu.Unlock()
}

// calRates returns the PE's smoothed (CPU fraction spent, SDOs/s
// processed) pair — one rate-model sample for the calibrator.
func (pr *peRuntime) calRates() (cpuFrac, rate float64) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.trkCPU.Rate(), pr.trkRate.Rate()
}

// RetargetConfig configures the automatic adaptive loop.
type RetargetConfig struct {
	// Every is the virtual seconds between re-solves (required, > 0).
	Every float64
	// Optimize configures the tier-1 solver. WarmStart is managed by the
	// loop (each re-solve starts from the incumbent targets).
	Optimize optimize.Config
	// Lambda is the RLS forgetting factor (0 → 0.98).
	Lambda float64
	// MinSamples gates calibration: a PE observed in fewer windows keeps
	// its declared model (0 → the calibrator default).
	MinSamples int
	// Elastic switches the re-solve to SolveElastic: the loop chooses
	// per-replica-slot targets from the calibrated models (a replica adds
	// a_j·c̄ − b_j capacity but pays the overhead b_j again) and
	// disseminates them as replica target sets.
	Elastic bool
	// OnRetarget, when set, is invoked after each accepted epoch with the
	// new targets (testing and logging hook; called from the loop
	// goroutine).
	OnRetarget func(epoch uint64, cpu []float64)
	// Hier, when set, replaces the monolithic re-solve with the
	// hierarchical control plane: region-decomposed solves coordinated
	// through cut-edge prices (internal/hier). The decomposition is
	// computed once at StartRetarget and reused every epoch.
	Hier *HierRetarget
}

// StartRetarget launches the adaptive loop on this process: every Every
// virtual seconds it samples each local PE's measured rate model, re-runs
// the tier-1 solver on the calibrated topology warm-started from the
// incumbent, and applies + broadcasts the result as the next epoch. Remote
// PEs keep their declared models (their windows are not visible here), so
// run the loop on the process hosting the PEs whose drift matters — or on
// every process; epoch ordering makes concurrent loops safe, just wasteful.
// The loop stops with the cluster.
func (c *Cluster) StartRetarget(rc RetargetConfig) error {
	if rc.Every <= 0 {
		return fmt.Errorf("spc: RetargetConfig.Every must be positive, got %g", rc.Every)
	}
	cal := optimize.NewCalibrator(c.cfg.Topo, rc.Lambda, rc.MinSamples)
	var dec *hierDecomposition
	if rc.Hier != nil {
		d, err := buildHierDecomposition(c, rc.Hier)
		if err != nil {
			return err
		}
		dec = d
	}
	wall := time.Duration(rc.Every / c.scale * float64(time.Second))
	// The loop joins rtWG, not the data plane's wg: Stop waits this
	// goroutine out FIRST, so a re-solve can never overlap buffer
	// teardown (retarget-vs-shutdown race).
	c.rtWG.Add(1)
	go func() {
		defer c.rtWG.Done()
		ticker := time.NewTicker(wall)
		defer ticker.Stop()
		for {
			select {
			case <-c.ctx.Done():
				return
			case <-ticker.C:
			}
			if dec != nil {
				c.hierRetargetOnce(cal, rc, dec)
			} else {
				c.retargetOnce(cal, rc)
			}
		}
	}()
	return nil
}

// retargetOnce runs one iteration of the adaptive loop: observe, re-solve,
// apply, disseminate.
func (c *Cluster) retargetOnce(cal *optimize.Calibrator, rc RetargetConfig) {
	if c.abdicated() {
		return
	}
	// Every local replica slot's window is one sample for its LOGICAL PE's
	// rate model: replicas run the same code on the same stream, so each
	// (CPU spent, SDOs processed) pair regresses the same per-instance
	// h_j. Dormant slots contribute idle windows, which the calibrator
	// discards on its own.
	for _, pr := range c.prs {
		if pr.breaker.Load() {
			continue
		}
		cpuFrac, rate := pr.calRates()
		cal.Observe(int(pr.id), cpuFrac, rate)
	}
	cur := c.targets.Load()
	oc := rc.Optimize
	if rc.Elastic {
		oc.WarmStartReplica = cur.rep
		ea, err := optimize.SolveElastic(cal.Calibrated(), oc)
		if err != nil {
			c.broadcastTargets()
			return
		}
		c.noteSolve(ea.SolveMillis, ea.Iterations)
		if ea.ColdStart {
			c.noteColdSolve()
		}
		if err := c.SetReplicaTargets(cur.epoch+1, ea.Replica); err != nil {
			c.broadcastTargets()
			return
		}
		if rc.OnRetarget != nil {
			rc.OnRetarget(cur.epoch+1, ea.CPU)
		}
		return
	}
	oc.WarmStart = cur.cpu
	alloc, err := optimize.Solve(cal.Calibrated(), oc)
	if err != nil {
		// An unsolvable calibrated topology (pathological estimates slipped
		// the guards) must not kill the loop; keep the incumbent targets.
		c.broadcastTargets()
		return
	}
	c.noteSolve(alloc.SolveMillis, alloc.Iterations)
	if alloc.ColdStart {
		c.noteColdSolve()
	}
	if err := c.SetTargets(cur.epoch+1, alloc.CPU); err != nil {
		// Lost a race with a concurrent retarget; its targets stand.
		// Re-disseminate whatever is current so peers converge regardless.
		c.broadcastTargets()
		return
	}
	if rc.OnRetarget != nil {
		rc.OnRetarget(cur.epoch+1, alloc.CPU)
	}
}

// abdicated reports whether a NEWER controller term has been applied than
// this process ever claimed: a standby took over (or this process is the
// deposed ex-controller). An abdicated retarget loop stops originating
// epochs — its solves would be fenced everywhere anyway — and instead
// helps disseminate the incumbent's targets.
func (c *Cluster) abdicated() bool {
	if c.targets.Load().term <= c.ctrlTerm.Load() {
		return false
	}
	c.broadcastTargets()
	return true
}
