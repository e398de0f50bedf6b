// Controller failover: standby processes watch the incumbent
// controller's target-frame stream and, when it goes silent, the
// lowest-ranked live standby claims the next controller term,
// warm-starts from the last applied target set, and resumes the adaptive
// loop. Terms order lexicographically ahead of epochs ((term, epoch)
// pairs; see installTargets), so the claim instantly outranks anything
// the dead — or merely partitioned — ex-controller ever disseminated,
// and every receiver fences the deposed term's frames. Claim epochs
// continue the incumbent's sequence (epoch+1), so epoch-only consumers
// (ack lag) stay monotone across a takeover.
package spc

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// FailoverConfig parameterizes a standby controller.
type FailoverConfig struct {
	// Rank staggers contention: standby k waits SilenceAfter + k·Stagger
	// of controller silence before claiming, so the lowest-ranked LIVE
	// standby wins without an election protocol — by the time rank 1's
	// deadline passes, rank 0's claim frames have either arrived (silence
	// clock reset, no claim) or rank 0 is dead too.
	Rank int
	// SilenceAfter is the virtual seconds of controller silence before
	// this standby's base deadline (required > 0). Must comfortably
	// exceed the incumbent's retarget period: fresh frames arrive every
	// Every, so anything shorter false-positives on a healthy controller.
	SilenceAfter float64
	// Stagger is the per-rank deadline spacing (default SilenceAfter/2).
	Stagger float64
	// CheckEvery is the watcher's poll period (default SilenceAfter/4).
	CheckEvery float64
	// Retarget configures the adaptive loop the standby starts after a
	// successful claim (Every required > 0, as in StartRetarget).
	Retarget RetargetConfig
	// OnClaim, when set, is invoked with the claimed term right after the
	// takeover epoch installs and before the adaptive loop starts
	// (testing and logging hook; called from the watcher goroutine).
	OnClaim func(term uint64)
}

// StartFailover launches a standby-controller watcher on this process: it
// monitors the incumbent's target-frame liveness (LastControllerFrame,
// refreshed by every injected frame from a non-deposed term) and, once
// the rank-staggered silence deadline passes, claims the next controller
// term and starts the adaptive loop with the given retarget config. The
// watcher joins the retarget wait group and stops with the cluster.
func (c *Cluster) StartFailover(fc FailoverConfig) error {
	if fc.SilenceAfter <= 0 {
		return fmt.Errorf("spc: FailoverConfig.SilenceAfter must be positive, got %g", fc.SilenceAfter)
	}
	if fc.Rank < 0 {
		return fmt.Errorf("spc: FailoverConfig.Rank must be non-negative, got %d", fc.Rank)
	}
	if fc.Retarget.Every <= 0 {
		return fmt.Errorf("spc: FailoverConfig.Retarget.Every must be positive, got %g", fc.Retarget.Every)
	}
	if fc.Stagger <= 0 {
		fc.Stagger = fc.SilenceAfter / 2
	}
	if fc.CheckEvery <= 0 {
		fc.CheckEvery = fc.SilenceAfter / 4
	}
	// Arm the silence clock: a standby that never hears the incumbent at
	// all must still take over SilenceAfter from NOW, not from time 0.
	c.lastCtrlFrame.Store(math.Float64bits(c.clock.Now()))
	deadline := fc.SilenceAfter + float64(fc.Rank)*fc.Stagger
	wall := time.Duration(fc.CheckEvery / c.scale * float64(time.Second))
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
			if c.clock.Now()-c.LastControllerFrame() < deadline {
				continue
			}
			term, err := c.ClaimControl()
			if err != nil {
				// A newer controller's frame landed between the deadline
				// check and the install (it also reset the silence clock).
				// A malformed warm start cannot happen: the claim
				// re-installs the ALREADY-INSTALLED set. Keep watching.
				continue
			}
			if fc.OnClaim != nil {
				fc.OnClaim(term)
			}
			// Legal Add-while-waiting: this goroutine still holds an rtWG
			// count, so the counter cannot have reached zero.
			_ = c.StartRetarget(fc.Retarget)
			return
		}
	}()
	return nil
}

// ClaimControl claims the next controller term for this process: it
// raises the local controller term once, above both the applied set's
// term and any term this process claimed before, then re-installs the
// last applied targets under (newTerm, epoch+1) and broadcasts them — the
// takeover epoch every receiver's fencing rule will prefer over anything
// the deposed controller sends afterward. Warm-starting from the applied
// set makes the takeover itself a no-op for the data plane; the adaptive
// loop then evolves targets from there. Safe to call concurrently with
// in-flight SetTargets/Inject*/Broadcast traffic: an install that loses
// the epoch race to same-term traffic is retried under the SAME term, so
// one claim burns one term however many installs it takes. Returns the
// claimed term, or ErrDeposedTerm when a still newer controller's frame
// landed first — that controller is alive, and outbidding it is the next
// silence deadline's business, not this claim's.
func (c *Cluster) ClaimControl() (uint64, error) {
	// CAS-max: concurrent claims or a racing SetTargets must never observe
	// the term moving backward, and two claims never share a term.
	var term uint64
	for {
		old := c.ctrlTerm.Load()
		term = old
		if t := c.targets.Load().term; t > term {
			term = t
		}
		term++
		if c.ctrlTerm.CompareAndSwap(old, term) {
			break
		}
	}
	for {
		cur := c.targets.Load()
		var err error
		if cur.rep != nil {
			err = c.SetReplicaTargets(cur.epoch+1, cur.rep)
		} else {
			err = c.SetTargets(cur.epoch+1, cur.cpu)
		}
		if err == nil {
			// The install is stamped with the controller term current at
			// that instant, which a concurrent claim may have raised past
			// ours; report what is actually applied.
			if t := c.targets.Load().term; t > term {
				term = t
			}
			return term, nil
		}
		if errors.Is(err, ErrStaleEpoch) && !errors.Is(err, ErrDeposedTerm) {
			// Same-term traffic took epoch+1 first; go again above it.
			continue
		}
		return 0, err
	}
}

// ControllerTerm returns the controller term this process stamps on
// epochs it originates (0 until ClaimControl).
func (c *Cluster) ControllerTerm() uint64 { return c.ctrlTerm.Load() }

// LastControllerFrame returns the virtual time of the last target frame
// received from a live (non-deposed) controller term — the silence clock
// failover watchers and tree repair read. Before any frame arrives it
// holds the arming time (Start, StartFailover or EnableHierRepair).
func (c *Cluster) LastControllerFrame() float64 {
	return math.Float64frombits(c.lastCtrlFrame.Load())
}
