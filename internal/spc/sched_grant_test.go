package spc

import (
	"math"
	"testing"

	"aces/internal/controller"
	"aces/internal/policy"
	"aces/internal/sdo"
)

// The tests here drive schedulerTick by hand on a cluster that was never
// started: no PE goroutine spends budget and no clock runs, so every
// number is exact.

const grantTol = 1e-12

// soloCluster is one PE (ingress and egress at once, so Eq. 8 never caps
// it) alone on its node with the given target.
func soloCluster(t *testing.T, cost, target float64) (*Cluster, *peRuntime, *schedScratch) {
	t.Helper()
	topo := buildChain(t, 1, 1, cost, 100)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{target}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.cancel)
	return c, c.pes[0], newSchedScratch(1)
}

// passThrough admits n SDOs and removes them again, as a PE that kept up
// with its input would: the buffer is empty afterwards, the admit cursor
// is n further on.
func passThrough(t *testing.T, b *Buffer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !b.TryPush(sdo.SDO{Seq: uint64(i)}) {
			t.Fatal("push refused")
		}
		if _, ok := b.TryPop(); !ok {
			t.Fatal("pop failed")
		}
	}
}

func budgetOf(pr *peRuntime) float64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.budget
}

// A PE that is empty at the tick instant but admitted N SDOs during the
// interval just ended is granted N SDOs' worth of CPU for the next one
// (the queue-only formula granted it nothing); a PE that admitted none is
// granted none.
func TestIntervalGrantCoversArrivals(t *testing.T) {
	const cost, n = 1e-5, 100
	c, pr, scr := soloCluster(t, cost, 0.3)
	dt := c.cfg.Dt
	now := c.clock.Now()
	passThrough(t, pr.buf, n)
	c.schedulerTick(c.nodes[0], scr, now, dt)
	if got, want := budgetOf(pr), n*cost; math.Abs(got-want) > grantTol {
		t.Errorf("budget after a tick that saw %d admits and an empty buffer = %g, want %g", n, got, want)
	}

	idle, ipr, iscr := soloCluster(t, cost, 0.3)
	idle.schedulerTick(idle.nodes[0], iscr, now, dt)
	if got := budgetOf(ipr); got != 0 {
		t.Errorf("budget of a PE with no admits and an empty buffer = %g, want 0", got)
	}
}

// The refund invariant: grant a PE does not spend comes back at the next
// tick, so its bucket plus the one SDO's cost it may keep equals the
// bucket of a PE that was never granted anything — and what comes back
// never lifts a bucket over its cap.
func TestUnspentGrantReturnsToBucket(t *testing.T) {
	const cost, n = 1e-5, 100
	c, pr, scr := soloCluster(t, cost, 0.3)
	ref, rpr, rscr := soloCluster(t, cost, 0.3)
	dt := c.cfg.Dt
	now := c.clock.Now()
	passThrough(t, pr.buf, n)
	for tick := 0; tick < 3; tick++ {
		c.schedulerTick(c.nodes[0], scr, now, dt)
		ref.schedulerTick(ref.nodes[0], rscr, now, dt)
		now += dt
	}
	kept := budgetOf(pr)
	if math.Abs(kept-cost) > grantTol {
		t.Errorf("budget left with the PE after the reclaim = %g, want one SDO's cost %g", kept, cost)
	}
	if got, want := pr.bucket.Level()+kept/c.cfg.Dt, rpr.bucket.Level(); math.Abs(got-want) > grantTol {
		t.Errorf("bucket %g + kept %g = %g, never-granted bucket %g", pr.bucket.Level(), kept/c.cfg.Dt, got, want)
	}

	// At the cap: bank both buckets full, grant one, and take it back.
	limit := pr.bucket.Rate() * c.cfg.BurstTicks
	pr.bucket.RefillFor(2 * c.cfg.BurstTicks)
	rpr.bucket.RefillFor(2 * c.cfg.BurstTicks)
	passThrough(t, pr.buf, n)
	for tick := 0; tick < 2; tick++ {
		c.schedulerTick(c.nodes[0], scr, now, dt)
		ref.schedulerTick(ref.nodes[0], rscr, now, dt)
		now += dt
		if lvl := pr.bucket.Level(); lvl > limit {
			t.Fatalf("tick %d: bucket level %g over its cap %g", tick, lvl, limit)
		}
	}
	if got := pr.bucket.Level(); got != limit || rpr.bucket.Level() != limit {
		t.Errorf("bucket after a refund at the cap = %g (never-granted %g), want the cap %g", got, rpr.bucket.Level(), limit)
	}
}

// Overload is untouched: with a full buffer and a bucket that binds, the
// allocation is the token level, exactly as under the queue-only formula
// (work only grew, and it was not the binding term).
func TestTokenBoundGrantUnchanged(t *testing.T) {
	const cost = 1e-3
	c, pr, scr := soloCluster(t, cost, 0.3)
	dt := c.cfg.Dt
	for pr.buf.TryPush(sdo.SDO{}) {
	}
	if pr.buf.Len() != pr.buf.Cap() {
		t.Fatal("buffer not full")
	}
	tokens := pr.bucket.Level()
	if work := float64(pr.buf.Len()) * cost / dt; work <= tokens {
		t.Fatalf("work %g does not exceed tokens %g: the bucket is not binding", work, tokens)
	}
	c.schedulerTick(c.nodes[0], scr, c.clock.Now(), dt)
	want := controller.PlanACES([]controller.PETick{{
		Target: 0.3, Tokens: tokens, Occupancy: float64(pr.buf.Cap()),
		Work: float64(pr.buf.Cap()) * cost / dt, Cap: math.Inf(1),
	}}, 1)[0]
	if want != tokens {
		t.Fatalf("queue-only plan = %g, want the token level %g", want, tokens)
	}
	if got := budgetOf(pr); got != want*dt {
		t.Errorf("grant = %g, want tokens·dt = %g exactly", got, want*dt)
	}
	if got, want := pr.bucket.Level(), tokens+pr.bucket.Rate()-want; got != want {
		t.Errorf("bucket after the tick = %g, want level + earnings − grant = %g", got, want)
	}
}

// A replica slot's admit cursor keeps moving while the slot is dormant
// (admits from before its scale-in, SDOs the drain put back). None of
// that is the arrival rate of the interval before its activation.
func TestDormantSlotActivationSeesNoStaleArrivals(t *testing.T) {
	const hotCost = 1e-4
	topo := elasticChain(t, 100, hotCost)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{0.2, 0.3, 0.2}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()
	peers := c.nodes[0]
	scr := newSchedScratch(len(peers))
	dt := c.cfg.Dt
	now := c.clock.Now()
	slot := c.replicas[1][1]
	c.schedulerTick(peers, scr, now, dt)
	passThrough(t, slot.buf, 40)
	for tick := 0; tick < 50; tick++ {
		now += dt
		c.schedulerTick(peers, scr, now, dt)
	}
	if err := c.SetReplicaTargets(1, [][]float64{{0.2}, {0.15, 0.15}, {0.2}}); err != nil {
		t.Fatal(err)
	}
	now += dt
	c.schedulerTick(peers, scr, now, dt)
	// The plan's input is the witness: a fresh slot's bucket starts empty,
	// so its first grant is zero whatever work it is shown.
	for i, pr := range peers {
		if pr == slot && scr.ticks[i].Work != 0 {
			t.Errorf("slot activated with an empty buffer and no admits since was planned with work %g, want 0", scr.ticks[i].Work)
		}
	}
	// From here on its admits count like any PE's.
	passThrough(t, slot.buf, 10)
	now += dt
	c.schedulerTick(peers, scr, now, dt)
	if got, want := budgetOf(slot), 10*hotCost; math.Abs(got-want) > grantTol {
		t.Errorf("active slot granted %g after 10 admits, want %g", got, want)
	}
}
