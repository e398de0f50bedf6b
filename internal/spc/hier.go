// Hierarchical dissemination: epoch-stamped targets flow DOWN a spanning
// tree of processes (root → relays → leaves) and acks flow back UP, so
// the root of a large deployment pushes each epoch to a handful of
// children instead of fanning out to every node, and still learns how
// far every descendant has applied. The tree is pure wiring on top of
// the existing target vocabulary: a relay that applies an epoch
// re-broadcasts the SAME frames to its own children, and stale-epoch
// rejection dedups the inevitable re-deliveries.
package spc

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// hierRelay is a cluster's position in the dissemination tree.
type hierRelay struct {
	mu sync.Mutex
	// parent receives this process's acks (nil at the root).
	parent ControlSender
	// children receive relayed target frames (empty at a leaf).
	children []ControlSender
	// origin is the node ID this process acks as.
	origin int32
	// acked[o] is the newest epoch acked by descendant origin o.
	acked   map[int32]uint64
	enabled bool

	// Self-healing state (EnableHierRepair; all zero when disabled).
	repair bool
	// backups is the ordered standby-parent list; a parent-silence verdict
	// promotes the head and re-acks the whole subtree through it.
	backups []ControlSender
	// silenceAfter is the parent-death timeout in virtual seconds.
	silenceAfter float64
	// retransLag / retransEvery bound the lag-based retransmission: a
	// descendant acked more than retransLag epochs behind the applied set
	// gets the current frames again, at most once per retransEvery.
	retransLag   uint64
	retransEvery float64
	// lastReparent is when the parent slot last changed (or a silence
	// probe last re-acked); the silence clock restarts here so one dead
	// window cannot burn through the whole backup list at once.
	lastReparent float64
	// nextRetrans rate-limits the lag-based retransmission.
	nextRetrans float64
	// reparents counts promoted backup parents (tests and telemetry).
	reparents int64
}

// EnableHierRelay places this process in the dissemination tree: acks go
// to parent under the given origin node ID (parent nil at the root), and
// every applied epoch is re-broadcast to the children. Call before
// Start. Once enabled, SetTargets/SetReplicaTargets disseminate through
// the children instead of the flat uplink; received epochs are relayed
// down and acked up automatically.
func (c *Cluster) EnableHierRelay(origin int32, parent ControlSender, children ...ControlSender) {
	c.hier.mu.Lock()
	defer c.hier.mu.Unlock()
	c.hier.origin = origin
	c.hier.parent = parent
	c.hier.children = append([]ControlSender(nil), children...)
	c.hier.acked = make(map[int32]uint64)
	c.hier.enabled = true
}

func (c *Cluster) hierEnabled() bool {
	c.hier.mu.Lock()
	defer c.hier.mu.Unlock()
	return c.hier.enabled && len(c.hier.children) > 0
}

// HierRepair configures the dissemination tree's self-healing: backup
// parents to promote when the configured parent goes silent, and
// lag-based retransmission of the current epoch to descendants whose
// acks fall behind.
type HierRepair struct {
	// Backups is the ordered standby-parent list (may be empty: a node
	// with no alternatives still gets lag-based retransmission and the
	// periodic re-ack probe).
	Backups []ControlSender
	// ParentSilenceAfter is how long (virtual seconds) without a
	// controller frame before the parent is declared dead and the head
	// backup promoted. Must exceed the retarget period — fresh frames
	// arrive every Every, so anything shorter false-positives on a
	// healthy tree. Required > 0 when Backups is non-empty.
	ParentSilenceAfter float64
	// RetransmitLag is the acked-epoch gap beyond which a descendant gets
	// the current epoch retransmitted (default 1 — the "lagging more than
	// one epoch" rule).
	RetransmitLag uint64
	// RetransmitEvery rate-limits retransmission bursts, virtual seconds
	// (default 0.25).
	RetransmitEvery float64
}

// EnableHierRepair arms the tree's self-healing on this process. Call
// after EnableHierRelay (it extends the same tree position). Safe before
// Start only, like EnableHierRelay.
func (c *Cluster) EnableHierRepair(hr HierRepair) error {
	if len(hr.Backups) > 0 && hr.ParentSilenceAfter <= 0 {
		return fmt.Errorf("spc: HierRepair.ParentSilenceAfter must be positive with backups, got %g", hr.ParentSilenceAfter)
	}
	if hr.RetransmitLag == 0 {
		hr.RetransmitLag = 1
	}
	if hr.RetransmitEvery <= 0 {
		hr.RetransmitEvery = 0.25
	}
	now := c.clock.Now()
	c.lastCtrlFrame.CompareAndSwap(0, math.Float64bits(now))
	c.hier.mu.Lock()
	defer c.hier.mu.Unlock()
	c.hier.repair = true
	c.hier.backups = append([]ControlSender(nil), hr.Backups...)
	c.hier.silenceAfter = hr.ParentSilenceAfter
	c.hier.retransLag = hr.RetransmitLag
	c.hier.retransEvery = hr.RetransmitEvery
	c.hier.lastReparent = now
	return nil
}

// Reparents returns how many backup parents this process has promoted.
func (c *Cluster) Reparents() int64 {
	c.hier.mu.Lock()
	defer c.hier.mu.Unlock()
	return c.hier.reparents
}

// hierMaintain is the tree's periodic self-healing sweep, run from the
// snapshot node's scheduler. Two mechanisms, covering the two ways a
// subtree starves: (1) lag-based retransmission — a descendant whose ack
// trails the applied epoch by more than RetransmitLag gets the current
// frames relayed again (repairs lost frames below an ALIVE relay); and
// (2) parent-silence re-parenting — no controller frame for
// ParentSilenceAfter promotes the head backup parent and replays the
// subtree's whole ack map through it, so the new parent both learns
// where this subtree stands and (via its own lagging-ack push) re-feeds
// it the current epoch (repairs a DEAD parent, no adoption protocol
// needed). With no backups left, the replay repeats each silence window
// as a keepalive probe toward whoever still listens.
func (c *Cluster) hierMaintain(now float64) {
	h := &c.hier
	h.mu.Lock()
	if !h.repair {
		h.mu.Unlock()
		return
	}
	ts := c.targets.Load()
	needRelay := false
	if len(h.children) > 0 && now >= h.nextRetrans {
		for _, e := range h.acked {
			if ts.epoch > e && ts.epoch-e > h.retransLag {
				needRelay = true
				h.nextRetrans = now + h.retransEvery
				break
			}
		}
	}
	var reparentTo ControlSender
	var origin int32
	var replay map[int32]uint64
	if h.parent != nil && h.silenceAfter > 0 {
		last := math.Float64frombits(c.lastCtrlFrame.Load())
		if h.lastReparent > last {
			last = h.lastReparent
		}
		if now-last > h.silenceAfter {
			if len(h.backups) > 0 {
				h.parent = h.backups[0]
				h.backups = h.backups[1:]
				h.reparents++
				if c.reg != nil {
					c.reg.Counter("hier_reparents_total", nil).Inc()
				}
			}
			h.lastReparent = now
			reparentTo = h.parent
			origin = h.origin
			replay = make(map[int32]uint64, len(h.acked))
			for o, e := range h.acked {
				replay[o] = e
			}
		}
	}
	h.mu.Unlock()
	if needRelay {
		c.relayTargetsDown()
	}
	if reparentTo != nil {
		// Re-ack own position first, then the descendants: the new parent
		// sees this subtree's applied epoch before any (older) descendant
		// epochs, so its lagging-ack push fires at most once.
		_ = reparentTo.SendTargetAck(origin, ts.term, ts.epoch)
		for o, e := range replay {
			if o == origin {
				continue
			}
			_ = reparentTo.SendTargetAck(o, ts.term, e)
		}
	}
}

// relayTargetsDown pushes the applied target set to every tree child.
// Each frame increments retarget_frames_sent.
func (c *Cluster) relayTargetsDown() {
	c.hier.mu.Lock()
	children := c.hier.children
	c.hier.mu.Unlock()
	if len(children) == 0 {
		return
	}
	ts := c.targets.Load()
	for _, child := range children {
		if err := child.SendTargets(ts.term, ts.epoch, ts.rep); err != nil {
			continue // best effort; the next epoch or re-broadcast repairs it
		}
		c.framesSent.Add(1)
		if c.reg != nil {
			c.reg.Counter("retarget_frames_sent", nil).Inc()
		}
	}
}

// ackTargetsUp reports the applied (term, epoch) to the tree parent
// (no-op at the root). Sent on EVERY received target frame, stale or
// fresh, so a parent that re-broadcasts after a reconnect always
// re-learns where the subtree stands.
func (c *Cluster) ackTargetsUp() {
	c.hier.mu.Lock()
	parent := c.hier.parent
	origin := c.hier.origin
	c.hier.mu.Unlock()
	if parent == nil {
		return
	}
	ts := c.targets.Load()
	_ = parent.SendTargetAck(origin, ts.term, ts.epoch)
}

// InjectTargetAckFrom records a descendant's applied (term, epoch) and
// forwards FRESH acks toward the root, so every ancestor sees them.
// Already-seen (origin, epoch) pairs are deduped before forwarding — a
// flapping subtree re-acking the same epoch on every re-delivered frame
// must not amplify into an ack storm up the tree. `from`, when non-nil,
// is the link the ack arrived on: with repair enabled, an origin acking
// more than RetransmitLag epochs behind the applied set gets the current
// targets pushed straight back down that link — which is what re-delivers
// epochs to an orphan that re-parented onto us, without anyone having to
// adopt it as a configured child. Called by the link layer for
// KindTargetAck frames.
func (c *Cluster) InjectTargetAckFrom(origin int32, term, epoch uint64, from ControlSender) {
	h := &c.hier
	h.mu.Lock()
	if h.acked == nil {
		h.acked = make(map[int32]uint64)
	}
	prev, seen := h.acked[origin]
	fresh := !seen || epoch > prev
	if epoch > prev {
		h.acked[origin] = epoch
	}
	parent := h.parent
	repair := h.repair
	lagBound := h.retransLag
	h.mu.Unlock()
	c.updateEpochLag()
	if repair && from != nil {
		if ts := c.targets.Load(); ts.epoch > epoch && ts.epoch-epoch > lagBound {
			if err := from.SendTargets(ts.term, ts.epoch, ts.rep); err == nil {
				c.framesSent.Add(1)
				if c.reg != nil {
					c.reg.Counter("retarget_frames_sent", nil).Inc()
				}
			}
		}
	}
	if fresh && parent != nil {
		_ = parent.SendTargetAck(origin, term, epoch)
	}
}

// EpochLag returns the applied-vs-acked epoch gap of the slowest tracked
// descendant (0 when no acks have been seen or everything is current).
func (c *Cluster) EpochLag() uint64 {
	applied := c.targets.Load().epoch
	c.hier.mu.Lock()
	defer c.hier.mu.Unlock()
	var lag uint64
	for _, e := range c.hier.acked {
		if e < applied && applied-e > lag {
			lag = applied - e
		}
	}
	return lag
}

// TargetFramesSent returns how many target frames this process has
// pushed to its tree children.
func (c *Cluster) TargetFramesSent() int64 { return c.framesSent.Load() }

// AckedEpochs returns a copy of the per-origin applied epochs this
// process has learned from downstream acks (empty for leaves and flat
// deployments).
func (c *Cluster) AckedEpochs() map[int32]uint64 {
	c.hier.mu.Lock()
	defer c.hier.mu.Unlock()
	out := make(map[int32]uint64, len(c.hier.acked))
	for o, e := range c.hier.acked {
		out[o] = e
	}
	return out
}

func (c *Cluster) updateEpochLag() {
	if c.gEpochLag != nil {
		c.gEpochLag.Set(float64(c.EpochLag()))
	}
}

// noteSolve publishes one tier-1 re-solve's cost to telemetry and the
// run report.
func (c *Cluster) noteSolve(ms float64, iters int) {
	c.lastSolveMs.Store(math.Float64bits(ms))
	c.lastSolveIters.Store(int64(iters))
	if c.gSolveMs != nil {
		c.gSolveMs.Set(ms)
	}
	if c.gSolveIters != nil {
		c.gSolveIters.Set(float64(iters))
	}
}

// LastSolveMillis returns the wall time of the most recent tier-1
// re-solve on this process (0 before the first).
func (c *Cluster) LastSolveMillis() float64 {
	return math.Float64frombits(c.lastSolveMs.Load())
}

// HierRetarget switches the adaptive loop's re-solve to the hierarchical
// control plane (internal/hier): the calibrated topology is decomposed
// into regions once at StartRetarget, and every epoch re-solves the
// regions independently under the root's price coordination instead of
// running one monolithic ascent. Its regional solves are elastic exactly
// when the topology declares replica slots, as the monolithic loop's
// are; either way the loop installs the result through its one path.
type HierRetarget struct {
	// Regions / MaxRegionPEs parameterize the partition (at least one
	// required; see hier.PartitionConfig).
	Regions      int
	MaxRegionPEs int
	// Sweeps, Epsilon, PriceStep tune the root's dual-ascent coordination
	// (defaults as in hier.Config).
	Sweeps    int
	Epsilon   float64
	PriceStep float64
	// Deadline is the per-epoch solve budget; a blown deadline truncates
	// the sweep instead of stalling the loop.
	Deadline time.Duration
}
