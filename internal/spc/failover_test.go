package spc

import (
	"math"
	"sync"
	"testing"
	"time"

	"aces/internal/policy"
	"aces/internal/sdo"
)

// nopControl is a ControlSender that drops every frame; the recording
// doubles below embed it and override the one send they observe.
type nopControl struct{}

func (nopControl) SendHeartbeat(int32, uint64) error             { return nil }
func (nopControl) SendTargets(uint64, uint64, [][]float64) error { return nil }
func (nopControl) SendTargetAck(int32, uint64, uint64) error     { return nil }

// recSender is a recording ControlSender double: a tree child (or a
// delivering link) that remembers every epoch pushed to it.
type recSender struct {
	nopControl
	mu     sync.Mutex
	epochs []uint64
}

func (r *recSender) SendTargets(term, epoch uint64, rep [][]float64) error {
	r.mu.Lock()
	r.epochs = append(r.epochs, epoch)
	r.mu.Unlock()
	return nil
}

func (r *recSender) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.epochs)
}

// recAck is a recording ControlSender double: a tree parent that
// remembers every (origin, epoch) acked through it.
type recAck struct {
	nopControl
	mu      sync.Mutex
	origins []int32
	epochs  []uint64
}

func (r *recAck) SendTargetAck(origin int32, term, epoch uint64) error {
	r.mu.Lock()
	r.origins = append(r.origins, origin)
	r.epochs = append(r.epochs, epoch)
	r.mu.Unlock()
	return nil
}

func (r *recAck) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.origins)
}

func (r *recAck) snapshot() map[int32]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int32]uint64, len(r.origins))
	for i, o := range r.origins {
		out[o] = r.epochs[i]
	}
	return out
}

func failoverCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	topo := chain3(t)
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	c, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 50, Warmup: 0.5, Seed: seed,
		LocalNodes: []sdo.NodeID{0}, Uplink: &memLink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The fencing regression the whole failover design hangs on: after a
// standby claims term 1, the deposed term-0 controller keeps
// disseminating — with HIGHER epochs than the takeover epoch. Epoch-only
// ordering would accept them and hand control back to a zombie;
// lexicographic (term, epoch) ordering must fence them at every
// injection point.
func TestTermFencingRejectsDeposedController(t *testing.T) {
	c := failoverCluster(t, 11)
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	if err := c.SetTargets(5, cpu); err != nil {
		t.Fatal(err)
	}
	term, err := c.ClaimControl()
	if err != nil {
		t.Fatal(err)
	}
	if term != 1 {
		t.Fatalf("claimed term %d, want 1", term)
	}
	if c.TargetsTerm() != 1 || c.TargetsEpoch() != 6 {
		t.Fatalf("takeover installed (term %d, epoch %d), want (1, 6)", c.TargetsTerm(), c.TargetsEpoch())
	}

	// The zombie's frames: term 0, epochs far beyond the takeover epoch,
	// and a skewed vector that would be visible if it ever applied.
	skew := []float64{0.9, 0.1, 0.9, 0.1, 0.9, 0.1}
	c.InjectTermTargets(0, 100, c.primaryColumn(skew))
	c.InjectTermTargets(0, 102, c.primaryColumn(skew))

	if got := c.FencedFrames(); got != 2 {
		t.Errorf("FencedFrames = %d, want 2", got)
	}
	if c.TargetsTerm() != 1 || c.TargetsEpoch() != 6 {
		t.Errorf("zombie frame moved targets to (term %d, epoch %d)", c.TargetsTerm(), c.TargetsEpoch())
	}
	if got := c.targets.Load().cpu[0]; got != 0.4 {
		t.Errorf("zombie vector applied: cpu[0] = %g, want 0.4", got)
	}
	// SetTargets on the deposed identity (term 0) must also lose.
	if err := c.applyReplicaTargets(0, 103, c.primaryColumn(skew)); err == nil {
		t.Errorf("deposed local applyReplicaTargets succeeded")
	}
	// The live term still advances normally.
	c.InjectTermTargets(1, 7, c.primaryColumn(cpu))
	if c.TargetsEpoch() != 7 {
		t.Errorf("live-term epoch 7 rejected (applied %d)", c.TargetsEpoch())
	}
	// Fencing surfaces in the run report (3: two zombie frames plus the
	// deposed local apply above).
	if rep := c.Report(1); rep.FencedFrames != 3 || rep.TargetTerm != 1 {
		t.Errorf("report fenced=%d term=%d, want 3/1", rep.FencedFrames, rep.TargetTerm)
	}
}

// ClaimControl races an in-flight control plane: concurrent claims,
// SetTargets, peer injections, broadcasts and Stop must leave the
// cluster on a coherent (term, epoch) without tripping the race
// detector. Run with -race; 100 iterations shake out interleavings.
func TestClaimControlRacesWithTargetTraffic(t *testing.T) {
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	for i := 0; i < 100; i++ {
		c := failoverCluster(t, int64(1000+i))
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(5)
		go func() {
			defer wg.Done()
			_, _ = c.ClaimControl()
		}()
		go func() {
			defer wg.Done()
			_, _ = c.ClaimControl()
		}()
		go func() {
			defer wg.Done()
			for e := uint64(1); e <= 5; e++ {
				_ = c.SetTargets(e, cpu)
			}
		}()
		go func() {
			defer wg.Done()
			for e := uint64(1); e <= 5; e++ {
				c.InjectTermTargets(0, e, c.primaryColumn(cpu))
				c.BroadcastTargets()
			}
		}()
		go func() {
			defer wg.Done()
			c.Stop()
		}()
		wg.Wait()
		// Two claims raced: the term must be ≥ 2 exactly when both landed,
		// and the applied set's term can never exceed the local claim term.
		if ts, ct := c.TargetsTerm(), c.ControllerTerm(); ts > ct || ct < 1 || ct > 2 {
			t.Fatalf("iter %d: applied term %d, controller term %d", i, ts, ct)
		}
	}
}

// A standby process claims the next term after the incumbent's silence
// deadline and starts its adaptive loop; frames from a live term keep
// resetting the clock so a healthy controller is never usurped.
func TestStartFailoverClaimsAfterSilence(t *testing.T) {
	c := failoverCluster(t, 21)
	claimed := make(chan uint64, 1)
	err := c.StartFailover(FailoverConfig{
		Rank:         0,
		SilenceAfter: 0.4,
		Retarget:     RetargetConfig{Every: 0.5},
		OnClaim:      func(term uint64) { claimed <- term },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	select {
	case term := <-claimed:
		if term != 1 {
			t.Errorf("claimed term %d, want 1", term)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("standby never claimed control")
	}
	if c.ControllerTerm() < 1 {
		t.Errorf("ControllerTerm = %d after claim", c.ControllerTerm())
	}
	if c.TargetsTerm() < 1 {
		t.Errorf("TargetsTerm = %d after claim", c.TargetsTerm())
	}
}

// Satellite: a child re-acking the same (origin, epoch) must not storm
// the grandparent — the relay forwards a duplicate ack zero times.
func TestRepeatedAckForwardsOnce(t *testing.T) {
	c := failoverCluster(t, 31)
	parent := &recAck{}
	c.EnableHierRelay(1, parent)
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	if err := c.applyReplicaTargets(0, 3, c.primaryColumn(cpu)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.InjectTargetAckFrom(7, 0, 2, nil)
	}
	if got := parent.count(); got != 1 {
		t.Errorf("duplicate acks forwarded %d times, want 1", got)
	}
	c.InjectTargetAckFrom(7, 0, 3, nil) // fresh progress forwards again
	if got := parent.count(); got != 2 {
		t.Errorf("fresh ack not forwarded (count %d, want 2)", got)
	}
	c.InjectTargetAckFrom(7, 0, 1, nil) // regression: stale, swallowed
	if got := parent.count(); got != 2 {
		t.Errorf("stale ack forwarded (count %d, want 2)", got)
	}
}

// Tree self-healing, mechanism 2: a silent parent is replaced by the
// head backup, and the whole subtree ack map replays through the new
// parent so it learns where this subtree stands. One dead window must
// not burn through the entire backup list.
func TestHierRepairPromotesBackupParent(t *testing.T) {
	c := failoverCluster(t, 41)
	dead := &recAck{}
	backup := &recAck{}
	c.EnableHierRelay(4, dead)
	if err := c.EnableHierRepair(HierRepair{
		Backups:            []ControlSender{backup},
		ParentSilenceAfter: 1,
	}); err != nil {
		t.Fatal(err)
	}
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	if err := c.applyReplicaTargets(0, 2, c.primaryColumn(cpu)); err != nil {
		t.Fatal(err)
	}
	c.InjectTargetAckFrom(5, 0, 2, nil) // a descendant the new parent must learn about
	base := c.clock.Now()

	c.hierMaintain(base + 5)
	if got := c.Reparents(); got != 1 {
		t.Fatalf("Reparents = %d after silence, want 1", got)
	}
	acks := backup.snapshot()
	if acks[4] != 2 {
		t.Errorf("new parent missing own-origin ack (got %v)", acks)
	}
	if acks[5] != 2 {
		t.Errorf("new parent missing replayed descendant ack (got %v)", acks)
	}
	// The silence clock restarted at the re-parent: an immediate second
	// sweep must not consume anything further.
	n := backup.count()
	c.hierMaintain(base + 5.5)
	if got := c.Reparents(); got != 1 {
		t.Errorf("Reparents = %d after fresh re-parent, want 1", got)
	}
	if backup.count() != n {
		t.Errorf("probe fired inside the fresh silence window")
	}
	// Backups exhausted: the next silence window degrades to a re-ack
	// probe toward the current parent, not a crash or a rotation.
	c.hierMaintain(base + 7)
	if got := c.Reparents(); got != 1 {
		t.Errorf("Reparents = %d with empty backup list, want 1", got)
	}
	if backup.count() <= n {
		t.Errorf("no re-ack probe after backups ran out")
	}
	if dead.count() != 1 {
		t.Errorf("dead parent got %d acks, want the 1 pre-silence forward", dead.count())
	}
}

// Tree self-healing, mechanism 1: a descendant whose ack lags the
// applied epoch by more than RetransmitLag gets the current frames
// again, rate-limited, and a caught-up subtree gets nothing. The
// ack-driven variant pushes down the delivering link immediately.
func TestHierRepairRetransmitsToLaggingDescendant(t *testing.T) {
	c := failoverCluster(t, 51)
	child := &recSender{}
	c.EnableHierRelay(0, nil, child)
	if err := c.EnableHierRepair(HierRepair{RetransmitLag: 1, RetransmitEvery: 0.5}); err != nil {
		t.Fatal(err)
	}
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	if err := c.SetTargets(5, cpu); err != nil {
		t.Fatal(err)
	}
	if child.count() != 1 {
		t.Fatalf("dissemination sent %d frames, want 1", child.count())
	}
	c.InjectTargetAckFrom(3, 0, 2, nil) // lag 3 > 1
	base := c.clock.Now()
	c.hierMaintain(base + 1)
	if child.count() != 2 {
		t.Errorf("no retransmit to lagging descendant (frames %d)", child.count())
	}
	c.hierMaintain(base + 1.1) // inside the rate-limit window
	if child.count() != 2 {
		t.Errorf("retransmit not rate-limited (frames %d)", child.count())
	}
	c.hierMaintain(base + 2)
	if child.count() != 3 {
		t.Errorf("retransmit stopped while still lagging (frames %d)", child.count())
	}
	c.InjectTargetAckFrom(3, 0, 5, nil) // caught up
	c.hierMaintain(base + 3)
	if child.count() != 3 {
		t.Errorf("retransmitted to a caught-up subtree (frames %d)", child.count())
	}

	// Ack-driven push: a lagging ack arriving over a known link gets the
	// current set pushed straight back down that link — the repair path
	// for an orphan that just re-parented under us.
	orphan := &recSender{}
	c.InjectTargetAckFrom(9, 0, 1, orphan)
	if orphan.count() != 1 {
		t.Errorf("lagging ack did not trigger a push down its link (frames %d)", orphan.count())
	}
	c.InjectTargetAckFrom(9, 0, 5, orphan) // caught up: no push
	if orphan.count() != 1 {
		t.Errorf("caught-up ack triggered a push (frames %d)", orphan.count())
	}
}

// Stale-target safety: with no fresh epoch for After, the scheduler
// ramps a bounded blend toward the declared model; the first fresh
// epoch snaps it back off.
func TestSafetyModeEngagesAndClearsOnFreshEpoch(t *testing.T) {
	topo := chain3(t)
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	c, err := NewCluster(Config{
		Topo: topo, Policy: policy.ACES, CPU: cpu, TimeScale: 50, Warmup: 0.2, Seed: 61,
		Safety: &SafetyConfig{After: 0.5, Step: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("safety mode to engage", c.SafeModeActive)
	// A fresh epoch clears the blend on the next tick, restoring the
	// installed targets exactly.
	if err := c.SetTargets(1, cpu); err != nil {
		t.Fatal(err)
	}
	waitFor("safety mode to clear", func() bool { return !c.SafeModeActive() })
}

// effSlot's blend algebra: group-proportional scaling toward the
// declared model, preserving intra-group ratios, with the zeroed-group
// share ramping back on the primary slot.
func TestEffSlotBlendAlgebra(t *testing.T) {
	c := failoverCluster(t, 71)
	ts := c.makeTargetSet(0, 1, c.primaryColumn([]float64{0.8, 0, 0.4, 0.4, 0.4, 0.4}))
	// Blend 0: the installed slot, untouched.
	if got := c.effSlot(ts, 0, 0, 0); got != 0.8 {
		t.Errorf("b=0 slot = %g, want 0.8", got)
	}
	// Full blend: exactly the declared share (0.4).
	if got := c.effSlot(ts, 0, 0, 1); got != 0.4 {
		t.Errorf("b=1 slot = %g, want the declared 0.4", got)
	}
	// Halfway: the group midpoint.
	if got := c.effSlot(ts, 0, 0, 0.5); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("b=0.5 slot = %g, want 0.6", got)
	}
	// A group the installed set zeroed ramps the declared share back on
	// the primary — the slot the singleton fallback ring routes to.
	if got := c.effSlot(ts, 1, 0, 0.5); got != 0.2 {
		t.Errorf("zeroed-group primary at b=0.5 = %g, want 0.2", got)
	}
}
