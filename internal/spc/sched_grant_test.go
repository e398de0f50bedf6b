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
// number is exact. A test that needs a PE to have run takes the budget
// away itself (spend).

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

// chainCluster is an n-PE chain on one node, every PE with the same cost
// and target, under pol.
func chainCluster(t *testing.T, n int, pol policy.Policy, cost, target float64) (*Cluster, []*peRuntime) {
	t.Helper()
	cpu := make([]float64, n)
	for i := range cpu {
		cpu[i] = target
	}
	c, err := NewCluster(Config{Topo: buildChain(t, n, 1, cost, 100), Policy: pol, CPU: cpu, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.cancel)
	return c, c.nodes[0]
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

// allocOf is the part of the PE's budget its bucket has been debited for:
// what the planner allocated (plus at most one SDO's cost kept from
// before), the loan left out.
func allocOf(pr *peRuntime) float64 { return budgetOf(pr) - pr.lent }

// spend runs the PE for x CPU-seconds.
func spend(pr *peRuntime, x float64) {
	pr.mu.Lock()
	pr.budget -= x
	pr.mu.Unlock()
}

// neverGranted is the level of a bucket that earned like pr's and was
// never granted from: the right-hand side of the settlement identity.
func neverGranted(c *Cluster, pr *peRuntime, ticks int) float64 {
	b := controller.NewTokenBucket(pr.bucket.Rate(), c.cfg.BurstTicks)
	for i := 0; i < ticks; i++ {
		b.Refill()
	}
	return b.Level()
}

// checkSettlementIdentity asserts bucket + (budget − lent)/Δt = want.
func checkSettlementIdentity(t *testing.T, c *Cluster, pr *peRuntime, want float64, when string) {
	t.Helper()
	if got := pr.bucket.Level() + allocOf(pr)/c.cfg.Dt; math.Abs(got-want) > grantTol {
		t.Errorf("%s: bucket %g + (budget %g − lent %g)/Δt = %g, never-granted bucket %g",
			when, pr.bucket.Level(), budgetOf(pr), pr.lent, got, want)
	}
}

// A PE that is empty at the tick instant but admitted N SDOs during the
// interval just ended is allocated N SDOs' worth of CPU for the next one
// and debited for exactly that; a PE that admitted none is allocated
// none. On a node with nothing else to do both hold their whole
// entitlement, the difference on loan.
func TestIntervalGrantCoversArrivals(t *testing.T) {
	const cost, n = 1e-5, 100
	c, pr, scr := soloCluster(t, cost, 0.3)
	dt := c.cfg.Dt
	now := c.clock.Now()
	tokens := pr.bucket.Level()
	passThrough(t, pr.buf, n)
	c.schedulerTick(c.nodes[0], scr, now, dt)
	if got, want := allocOf(pr), n*cost; math.Abs(got-want) > grantTol {
		t.Errorf("allocation after a tick that saw %d admits and an empty buffer = %g, want %g", n, got, want)
	}
	if got, want := budgetOf(pr), tokens*dt; math.Abs(got-want) > grantTol {
		t.Errorf("budget on an idle node = %g, want the token level %g·dt = %g", got, tokens, want)
	}
	checkSettlementIdentity(t, c, pr, neverGranted(c, pr, 1), "after the grant")

	idle, ipr, iscr := soloCluster(t, cost, 0.3)
	idle.schedulerTick(idle.nodes[0], iscr, now, dt)
	if got := allocOf(ipr); got != 0 {
		t.Errorf("allocation of a PE with no admits and an empty buffer = %g, want 0", got)
	}
	if got, want := budgetOf(ipr), tokens*dt; math.Abs(got-want) > grantTol {
		t.Errorf("budget of an idle PE on an idle node = %g, want %g, all of it lent", got, want)
	}
	checkSettlementIdentity(t, idle, ipr, neverGranted(idle, ipr, 1), "idle PE")
}

// The settlement identity: at every tick boundary the bucket, plus what
// the PE holds of its allocation, less nothing for the loan, is the level
// of a bucket never granted from; right after a settlement the PE holds at
// most one SDO's cost; and what comes back never lifts a bucket over its
// cap.
func TestUnspentGrantReturnsToBucket(t *testing.T) {
	const cost, n = 1e-5, 100
	c, pr, scr := soloCluster(t, cost, 0.3)
	dt := c.cfg.Dt
	now := c.clock.Now()
	passThrough(t, pr.buf, n)
	for tick := 1; tick <= 3; tick++ {
		c.schedulerTick(c.nodes[0], scr, now, dt)
		now += dt
		checkSettlementIdentity(t, c, pr, neverGranted(c, pr, tick), "tick boundary")
	}
	c.settle(pr, cost)
	if kept := budgetOf(pr); math.Abs(kept-cost) > grantTol || pr.lent != 0 {
		t.Errorf("after a settlement the PE holds %g (lent %g), want one SDO's cost %g and no loan", kept, pr.lent, cost)
	}
	checkSettlementIdentity(t, c, pr, neverGranted(c, pr, 3), "after the settlement")

	// At the cap: bank the bucket full, grant from it, and take it back.
	limit := pr.bucket.Rate() * c.cfg.BurstTicks
	pr.bucket.RefillFor(2 * c.cfg.BurstTicks)
	passThrough(t, pr.buf, n)
	for tick := 0; tick < 2; tick++ {
		c.schedulerTick(c.nodes[0], scr, now, dt)
		now += dt
		if lvl := pr.bucket.Level(); lvl > limit {
			t.Fatalf("tick %d: bucket level %g over its cap %g", tick, lvl, limit)
		}
	}
	if got := pr.bucket.Level(); got != limit {
		t.Errorf("bucket after a refund at the cap = %g, want the cap %g", got, limit)
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
	if got := budgetOf(slot); got != 0 || slot.lent != 0 {
		t.Errorf("dormant slot holds budget %g, lent %g, want none", got, slot.lent)
	}
	if err := c.SetReplicaTargets(1, [][]float64{{0.2}, {0.15, 0.15}, {0.2}}); err != nil {
		t.Fatal(err)
	}
	now += dt
	c.schedulerTick(peers, scr, now, dt)
	// The plan's input is the witness: a fresh slot's bucket starts empty,
	// so its first grant is zero, allocation and loan, whatever work it is
	// shown.
	for i, pr := range peers {
		if pr == slot && scr.ticks[i].Work != 0 {
			t.Errorf("slot activated with an empty buffer and no admits since was planned with work %g, want 0", scr.ticks[i].Work)
		}
	}
	if got := budgetOf(slot); got != 0 {
		t.Errorf("slot activated with an empty bucket was granted %g, want 0", got)
	}
	// From here on its admits count like any PE's.
	passThrough(t, slot.buf, 10)
	now += dt
	c.schedulerTick(peers, scr, now, dt)
	if got, want := allocOf(slot), 10*hotCost; math.Abs(got-want) > grantTol {
		t.Errorf("active slot allocated %g after 10 admits, want %g", got, want)
	}
	// Empty at activation, two ticks of earnings since.
	checkSettlementIdentity(t, c, slot, 2*slot.bucket.Rate(), "active slot")
}

// On a node with nothing to do every PE ends the tick holding its whole
// entitlement, min(tokens, Eq. 8 cap)·dt, none of it allocated: whatever
// the next interval brings is served when it arrives.
func TestIdleNodeLendsEntitlement(t *testing.T) {
	c, peers := chainCluster(t, 4, policy.ACES, 1e-5, 0.1)
	scr := newSchedScratch(len(peers))
	dt := c.cfg.Dt
	now := c.clock.Now()
	// Tick 1 has no advertisements yet (every cap is +Inf); tick 2 plans
	// under Eq. 8 caps, with buckets that still sum to less than the node.
	for tick := 1; tick <= 2; tick++ {
		c.schedulerTick(peers, scr, now, dt)
		now += dt
		var sum float64
		for i, pr := range peers {
			tk := scr.ticks[i]
			want := math.Min(tk.Tokens, tk.Cap) * dt
			sum += tk.Tokens
			if got := budgetOf(pr); math.Abs(got-want) > grantTol {
				t.Errorf("tick %d PE %d: holds %g, want min(tokens %g, cap %g)·dt = %g", tick, i, got, tk.Tokens, tk.Cap, want)
			}
			if got := allocOf(pr); got != 0 {
				t.Errorf("tick %d PE %d: allocated %g with nothing queued and nothing admitted", tick, i, got)
			}
		}
		if sum > 1 {
			t.Fatalf("tick %d: buckets sum to %g, the node is short and the test shows nothing", tick, sum)
		}
	}
}

// A PE that runs on its loan pays for what it ran, one tick later, and for
// nothing else.
func TestSpentLoanIsDebitedAtSettlement(t *testing.T) {
	const cost = 1e-5
	c, pr, scr := soloCluster(t, cost, 0.3)
	dt := c.cfg.Dt
	now := c.clock.Now()
	c.schedulerTick(c.nodes[0], scr, now, dt)
	if allocOf(pr) != 0 || pr.lent == 0 {
		t.Fatalf("idle PE: allocation %g, lent %g, want a grant that is all loan", allocOf(pr), pr.lent)
	}
	before := pr.bucket.Level()
	x := 40 * cost
	if x >= pr.lent {
		t.Fatalf("loan %g does not cover the %g this test spends", pr.lent, x)
	}
	spend(pr, x)
	now += dt
	c.schedulerTick(c.nodes[0], scr, now, dt)
	if got, want := pr.bucket.Level(), before+pr.bucket.Rate()-x/c.cfg.Dt; math.Abs(got-want) > grantTol {
		t.Errorf("bucket a tick after spending %g of a loan = %g, want level + earnings − %g = %g", x, got, x/c.cfg.Dt, want)
	}
	checkSettlementIdentity(t, c, pr, neverGranted(c, pr, 2)-x/c.cfg.Dt, "after the debit")
}

// A PE that does not use its loan is where it would be without lending:
// bucket levels and advertised r_max over 100 ticks against values
// recorded from the commit before lending (same cluster, same ticks).
// PE 0 admits 20 SDOs per interval and is allocated for them; PE 1 gets
// nothing but loans. Nobody runs.
func TestUnusedLoanLeavesBucketAndRmaxUnchanged(t *testing.T) {
	golden := []struct {
		tick                     int
		lvl0, rmax0, lvl1, rmax1 float64
	}{
		{1, 0x1.28f5c28f5c28fp-01, 0x1.6b69d3370a979p+08, 0x1.3333333333333p-01, 0x1.6f69d3370a979p+08},
		{2, 0x1.c20c49ba5e354p-01, 0x1.a503da6ab8b8bp+08, 0x1.cccccccccccccp-01, 0x1.a9370d9debebfp+08},
		{3, 0x1.2dd2f1a9fbe77p+00, 0x1.e1aabc1e7635ep+08, 0x1.3333333333333p+00, 0x1.e5ddef51a9691p+08},
		{5, 0x1.c76c8b4395811p+00, 0x1.2cc3f624561d8p+09, 0x1.ccccccccccccdp+00, 0x1.2edd8fbdefb72p+09},
		{10, 0x1.a3b645a1cac07p+01, 0x1.c2c2478eee08ep+09, 0x1.a666666666665p+01, 0x1.c4dbe12887a28p+09},
		{20, 0x1.91db22d0e5602p+02, 0x1.776124458be54p+10, 0x1.9333333333331p+02, 0x1.786df11258b2p+10},
		{50, 0x1.7f5c28f5c28f6p+03, 0x1.4a36f8892c6ecp+11, 0x1.8p+03, 0x1.4ab6f8892c6ecp+11},
		{100, 0x1.7f5c28f5c28f6p+03, 0x1.4a36f8892c6ecp+11, 0x1.8p+03, 0x1.4ab6f8892c6ecp+11},
	}
	c, peers := chainCluster(t, 2, policy.ACES, 1e-5, 0.3)
	scr := newSchedScratch(len(peers))
	dt := c.cfg.Dt
	now := c.clock.Now()
	g := 0
	for tick := 1; tick <= 100; tick++ {
		passThrough(t, peers[0].buf, 20)
		c.schedulerTick(peers, scr, now, dt)
		now += dt
		if peers[1].lent == 0 {
			t.Fatalf("tick %d: idle PE 1 was lent nothing, the test shows nothing", tick)
		}
		if tick != golden[g].tick {
			continue
		}
		w := golden[g]
		g++
		r0, _ := c.fb.fb.RMax(peers[0].key)
		r1, _ := c.fb.fb.RMax(peers[1].key)
		// PE 0's unspent allocation comes back through one more
		// subtraction than before (budget − lent), so it matches to
		// rounding; PE 1 never had anything but the loan and matches bit
		// for bit.
		if math.Abs(peers[0].bucket.Level()-w.lvl0) > grantTol || math.Abs(r0-w.rmax0) > 1e-9 {
			t.Errorf("tick %d PE 0: bucket %x r_max %x, before lending %x %x", tick, peers[0].bucket.Level(), r0, w.lvl0, w.rmax0)
		}
		if peers[1].bucket.Level() != w.lvl1 || r1 != w.rmax1 {
			t.Errorf("tick %d PE 1: bucket %x r_max %x, before lending %x %x", tick, peers[1].bucket.Level(), r1, w.lvl1, w.rmax1)
		}
	}
	if g != len(golden) {
		t.Fatalf("checked %d of %d recorded ticks", g, len(golden))
	}
}

// heldAfterTick settles every PE down to nothing, runs one tick and
// returns the CPU fraction of the interval the PEs then hold between them
// (allocations and loans).
func heldAfterTick(c *Cluster, peers []*peRuntime, scr *schedScratch, now, dt float64) float64 {
	for _, pr := range peers {
		c.settle(pr, 0)
	}
	c.schedulerTick(peers, scr, now, dt)
	var sum float64
	for _, pr := range peers {
		sum += budgetOf(pr)
	}
	return sum / dt
}

// Two shards of one node plan and lend against their own share of it:
// with buckets banked well past the node, each shard hands out its
// capShare and no more, so the node is never promised twice.
func TestShardsLendWithinCapShare(t *testing.T) {
	const stages, shards = 8, 2
	c, peers := chainCluster(t, stages, policy.ACES, 1e-5, 0.1)
	dt := c.cfg.Dt
	now := c.clock.Now()
	var nodeSum float64
	for s := 0; s < shards; s++ {
		lo, hi := shardRange(len(peers), shards, s)
		shard := peers[lo:hi]
		scr := newShardScratch(len(shard), 0, len(peers))
		for _, pr := range shard {
			pr.bucket.RefillFor(c.cfg.BurstTicks)
		}
		for tick := 0; tick < 5; tick++ {
			held := heldAfterTick(c, shard, scr, now+float64(tick)*dt, dt)
			if held > scr.capShare+grantTol {
				t.Errorf("shard %d tick %d: holds %g of the node, its share is %g", s, tick, held, scr.capShare)
			}
			if tick == 0 && math.Abs(held-scr.capShare) > grantTol {
				t.Errorf("shard %d: banked buckets and no Eq. 8 cap yet, holds %g, want its whole share %g", s, held, scr.capShare)
			}
			if tick == 4 {
				nodeSum += held
			}
		}
	}
	if nodeSum > 1+grantTol {
		t.Errorf("the shards together hold %g of one node", nodeSum)
	}
}

// Whatever the policy's planner and whatever the load, allocations plus
// loans stay within the node.
func TestGrantsAndLoansWithinCapacity(t *testing.T) {
	for _, pol := range policy.All() {
		c, peers := chainCluster(t, 4, pol, 1e-4, 0.3)
		scr := newSchedScratch(len(peers))
		dt := c.cfg.Dt
		now := c.clock.Now()
		lentAny := false
		for tick := 0; tick < 60; tick++ {
			// Idle, then a trickle, then more than the node can serve.
			switch {
			case tick >= 40:
				for _, pr := range peers {
					for pr.buf.TryPush(sdo.SDO{}) {
					}
				}
			case tick >= 20:
				passThrough(t, peers[tick%len(peers)].buf, 5)
			}
			held := heldAfterTick(c, peers, scr, now, dt)
			now += dt
			if held > 1+grantTol {
				t.Errorf("%v tick %d: allocations and loans sum to %g of the node", pol, tick, held)
			}
			for _, pr := range peers {
				lentAny = lentAny || pr.lent > 0
			}
		}
		if !lentAny {
			t.Errorf("%v: nothing was ever lent, the test shows nothing", pol)
		}
	}
}

// A tripped breaker ends the PE's right to run, and with it its grant: a
// parked PE holds no budget and no loan, and stays that way.
func TestParkedPEHoldsNoGrant(t *testing.T) {
	c, peers := chainCluster(t, 2, policy.ACES, 1e-5, 0.3)
	scr := newSchedScratch(len(peers))
	dt := c.cfg.Dt
	now := c.clock.Now()
	c.schedulerTick(peers, scr, now, dt)
	pr := peers[0]
	if budgetOf(pr) == 0 || pr.lent == 0 {
		t.Fatalf("budget %g, lent %g before the breaker: the test shows nothing", budgetOf(pr), pr.lent)
	}
	pr.breaker.Store(true)
	for tick := 0; tick < 3; tick++ {
		now += dt
		c.schedulerTick(peers, scr, now, dt)
		if got := budgetOf(pr); got != 0 || pr.lent != 0 {
			t.Errorf("tick %d after the breaker: parked PE holds budget %g, lent %g, want none", tick, got, pr.lent)
		}
	}
}

// Scale-in takes the slot's grant back before the drain's own: asleep, a
// slot holds the two SDOs' cost the drain leaves it and nothing else, for
// as long as it sleeps; woken, it is planned from its bucket alone.
func TestDeactivatedSlotHoldsOnlyTheDrainGrant(t *testing.T) {
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
	tick := func() {
		c.schedulerTick(peers, scr, now, dt)
		now += dt
	}
	if err := c.SetReplicaTargets(1, [][]float64{{0.2}, {0.15, 0.15}, {0.2}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tick()
	}
	if slot.lent <= 2*hotCost {
		t.Fatalf("active idle slot is lent %g, no more than the drain grant: the test shows nothing", slot.lent)
	}
	if err := c.SetReplicaTargets(2, [][]float64{{0.2}, {0.3, 0}, {0.2}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tick()
		if got := budgetOf(slot); got > 2*hotCost+grantTol || slot.lent != 0 {
			t.Errorf("tick %d asleep: slot holds budget %g, lent %g, want at most the drain grant %g and no loan", i, got, slot.lent, 2*hotCost)
		}
	}
	if err := c.SetReplicaTargets(3, [][]float64{{0.2}, {0.15, 0.15}, {0.2}}); err != nil {
		t.Fatal(err)
	}
	tick()
	// Deactivation emptied the bucket (rate 0 ⇒ cap 0) and activation drops
	// what is left of the drain's grant, so the first plan after waking has
	// nothing to allocate or lend from.
	for i, pr := range peers {
		if pr == slot && scr.ticks[i].Tokens != 0 {
			t.Errorf("reactivated slot planned with tokens %g, want 0: something outlived the deactivation", scr.ticks[i].Tokens)
		}
	}
	if got := budgetOf(slot); got != 0 || slot.lent != 0 {
		t.Errorf("reactivated slot holds budget %g, lent %g after its first tick, want none", got, slot.lent)
	}
}
