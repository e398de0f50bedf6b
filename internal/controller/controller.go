// Package controller implements ACES tier 2's CPU-control side (paper
// §V-D): per-PE token buckets that hold long-term allocations at the tier-1
// targets, an occupancy-proportional per-tick CPU planner, and the
// downstream feedback bound (Eq. 8) that embodies the max-flow policy.
//
// The package is substrate-agnostic: both the discrete-time simulator
// (internal/streamsim) and the live runtime (internal/spc) feed it the same
// per-tick PE snapshots and apply the allocations it returns.
package controller

import (
	"fmt"
	"math"
)

// TokenBucket accumulates CPU entitlement for one PE: it earns tokens at
// the tier-1 target rate c̄_j (fractions of a node-tick) and spends them
// when the PE is scheduled. Accumulation is capped so a long-idle PE cannot
// later monopolize the node ("if a PE does not use its tokens for a period
// of time, it accumulates these tokens up to a maximum value" — §V-D).
type TokenBucket struct {
	level float64
	rate  float64
	cap   float64
	// horizon is the burst horizon in ticks (cap = rate · horizon). It is
	// stored explicitly rather than derived from cap/rate so the horizon
	// survives a trip through SetRate(0): a parked PE that is later
	// unparked, or a retarget through zero, keeps its banked-burst
	// semantics.
	horizon float64
}

// NewTokenBucket creates a bucket earning rate tokens per tick with a
// capacity of burstTicks ticks' worth of earnings (minimum one tick). The
// bucket starts with one tick of tokens so a fresh PE can run immediately.
func NewTokenBucket(rate float64, burstTicks float64) *TokenBucket {
	if rate < 0 {
		panic("controller: negative token rate")
	}
	if burstTicks < 1 {
		burstTicks = 1
	}
	return &TokenBucket{level: rate, rate: rate, cap: rate * burstTicks, horizon: burstTicks}
}

// Refill adds one tick of earnings.
func (b *TokenBucket) Refill() { b.RefillFor(1) }

// RefillFor adds `ticks` ticks of earnings (fractional ticks allowed) —
// used by the live runtime, whose scheduler measures real elapsed time so
// late or coalesced timer ticks do not lose entitlement.
func (b *TokenBucket) RefillFor(ticks float64) {
	if ticks < 0 {
		ticks = 0
	}
	b.level += b.rate * ticks
	if b.level > b.cap {
		b.level = b.cap
	}
}

// Spend removes x tokens (clamped at zero; overspending is a programmer
// error upstream but must not corrupt the bucket).
func (b *TokenBucket) Spend(x float64) {
	b.level -= x
	if b.level < 0 {
		b.level = 0
	}
}

// Refund returns x tokens that were spent on a grant the PE then did not
// use. Like earnings, refunds stop at the cap: entitlement a PE leaves
// idle beyond its burst horizon is lost, whichever way it came in.
func (b *TokenBucket) Refund(x float64) {
	if x <= 0 {
		return
	}
	b.level += x
	if b.level > b.cap {
		b.level = b.cap
	}
}

// Level returns the current token balance.
func (b *TokenBucket) Level() float64 { return b.level }

// Rate returns the per-tick earning rate (the tier-1 target c̄_j).
func (b *TokenBucket) Rate() float64 { return b.rate }

// SetRate changes the earning rate and rescales the cap, preserving the
// burst horizon — used when tier 1 publishes new targets. The horizon is
// the one fixed at construction, so rate changes are hitless and
// reversible: SetRate(0) followed by SetRate(r) restores exactly the cap
// NewTokenBucket(r, burstTicks) would give.
func (b *TokenBucket) SetRate(rate float64) {
	if rate < 0 {
		panic("controller: negative token rate")
	}
	b.rate = rate
	b.cap = rate * b.horizon
	if b.level > b.cap {
		b.level = b.cap
	}
}

// PETick is one PE's per-tick snapshot handed to the planner.
type PETick struct {
	// Target is the tier-1 CPU target c̄_j (fraction of the node).
	Target float64
	// Tokens is the PE's accumulated entitlement in node-tick fractions.
	Tokens float64
	// Occupancy is the input-buffer fill in SDOs (the congestion signal
	// the planner shares CPU proportionally to).
	Occupancy float64
	// Work is the forecast of the CPU the PE can use this tick. It divides a
	// node that is short: the planner allocates no more than Work, so banked
	// buckets that add up to several nodes do not make an idle node look
	// oversubscribed. It is not a ceiling on what the PE may run: Lend hands
	// out the capacity the plan leaves over up to the PE's entitlement,
	// whatever Work said. The simulator, whose PEs run only at the tick,
	// passes the fraction that drains the input buffer as it stands (exact
	// there, so it never lends). The live runtime, whose PEs run between
	// ticks as SDOs arrive, passes that plus the cost of as many arrivals as
	// the interval just ended brought (see spc.schedulerTick).
	Work float64
	// Cap is the CPU fraction implied by the downstream feedback bound
	// (Eq. 8 mapped through g⁻¹); math.Inf(1) when unconstrained.
	Cap float64
	// Blocked marks a PE that cannot run this tick regardless of budget
	// (Lock-Step senders waiting on a full downstream buffer).
	Blocked bool
}

// Planner holds reusable scratch for the per-tick planning functions so a
// scheduler that plans every Δt allocates nothing in steady state. The
// slice returned by a Planner method aliases its scratch and is valid
// until the next call on the same Planner; a Planner is not safe for
// concurrent use (each node scheduler owns one).
type Planner struct {
	alloc []float64
	want  []float64
	lend  []float64
	flags []bool
	// byTokens records which entitlement the last plan enforced: the token
	// level (PlanACES) or the tier-1 target (every other planner). Lend
	// reads it, so a caller lends under the rule it planned under.
	byTokens bool
}

// scratch returns zeroed n-length scratch slices, growing the backing
// arrays only when a larger node appears.
func (p *Planner) scratch(n int) (alloc, want []float64, flags []bool) {
	if cap(p.alloc) < n {
		p.alloc = make([]float64, n)
		p.want = make([]float64, n)
		p.lend = make([]float64, n)
		p.flags = make([]bool, n)
	}
	p.alloc, p.want, p.flags = p.alloc[:n], p.want[:n], p.flags[:n]
	clear(p.alloc)
	clear(p.want)
	clear(p.flags)
	p.byTokens = false
	return p.alloc, p.want, p.flags
}

// PlanACES computes the per-tick CPU allocations for one node under the
// ACES policy: each PE may spend up to min(tokens, work, cap); when the
// node is oversubscribed, capacity is divided proportionally to input
// buffer occupancy by progressive filling (§V-D: "PEs are allowed to
// expend their tokens for CPU cycles proportional to their input buffer
// occupancies"). The returned allocations sum to at most capacity.
func PlanACES(pes []PETick, capacity float64) []float64 {
	var p Planner
	return p.PlanACES(pes, capacity)
}

// PlanACES is the scratch-reusing form of the package function.
func (p *Planner) PlanACES(pes []PETick, capacity float64) []float64 {
	alloc, want, active := p.scratch(len(pes))
	p.byTokens = true
	var total float64
	for i := range pes {
		w := math.Min(pes[i].Tokens, math.Min(pes[i].Work, pes[i].Cap))
		if w < 0 || pes[i].Blocked {
			w = 0
		}
		want[i] = w
		total += w
	}
	if total <= capacity {
		copy(alloc, want)
		return alloc
	}
	// Progressive filling proportional to occupancy: PEs that hit their
	// want drop out and their share is re-divided among the rest.
	remaining := capacity
	nActive := 0
	for i := range pes {
		if want[i] > 0 {
			active[i] = true
			nActive++
		}
	}
	for iter := 0; iter < len(pes)+1 && nActive > 0 && remaining > 1e-15; iter++ {
		var occSum float64
		for i := range pes {
			if active[i] {
				occSum += math.Max(pes[i].Occupancy, 1e-9)
			}
		}
		progressed := false
		grant := remaining
		for i := range pes {
			if !active[i] {
				continue
			}
			share := grant * math.Max(pes[i].Occupancy, 1e-9) / occSum
			room := want[i] - alloc[i]
			if share >= room {
				share = room
				active[i] = false
				nActive--
			}
			if share > 0 {
				alloc[i] += share
				remaining -= share
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return alloc
}

// PlanFairShare computes per-tick allocations for the baseline systems
// (UDP and Lock-Step): every runnable PE receives its long-term target, and
// capacity freed by blocked or idle PEs is redistributed among runnable
// PEs in proportion to their targets, capped by their remaining work
// ("while a PE sleeps, the CPU is redistributed among the other PEs
// residing on the node; the long-term CPU targets of the PEs are met" —
// §VI). The Cap field is ignored: the baselines have no downstream
// feedback.
func PlanFairShare(pes []PETick, capacity float64) []float64 {
	var p Planner
	return p.PlanFairShare(pes, capacity)
}

// PlanFairShare is the scratch-reusing form of the package function.
func (p *Planner) PlanFairShare(pes []PETick, capacity float64) []float64 {
	alloc, _, runnable := p.scratch(len(pes))
	// First pass: base grants, capped by work.
	var used float64
	for i := range pes {
		if pes[i].Blocked || pes[i].Work <= 0 {
			continue
		}
		runnable[i] = true
		g := math.Min(pes[i].Target, pes[i].Work)
		alloc[i] = g
		used += g
	}
	// Defensive: tier-1 targets are per-node feasible by construction, but
	// a caller may hand over-subscribed targets (e.g. perturbed
	// allocations); scale down proportionally rather than overshoot.
	if used > capacity {
		scale := capacity / used
		for i := range alloc {
			alloc[i] *= scale
		}
		return alloc
	}
	// Redistribute leftover proportionally to targets, progressive fill.
	remaining := capacity - used
	for iter := 0; iter < len(pes)+1 && remaining > 1e-15; iter++ {
		var tSum float64
		for i := range pes {
			if runnable[i] && alloc[i] < pes[i].Work {
				tSum += math.Max(pes[i].Target, 1e-9)
			}
		}
		if tSum == 0 {
			break
		}
		progressed := false
		grant := remaining
		for i := range pes {
			if !runnable[i] || alloc[i] >= pes[i].Work {
				continue
			}
			share := grant * math.Max(pes[i].Target, 1e-9) / tSum
			room := pes[i].Work - alloc[i]
			if share > room {
				share = room
			}
			if share > 0 {
				alloc[i] += share
				remaining -= share
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return alloc
}

// PlanLockStep allocates per the paper's System 3 (§VI): every runnable PE
// receives at most its long-term target per tick (strict enforcement, no
// banking), and ONLY the slices of sleeping (blocked) PEs are redistributed
// — proportionally to targets — among runnable PEs with remaining work
// ("while a PE sleeps, the CPU is redistributed among the other PEs
// residing on the node; the long-term CPU targets of the PEs are met").
// Idle slack (a PE with no work) is simply lost, as under traditional
// enforcement.
func PlanLockStep(pes []PETick, capacity float64) []float64 {
	var p Planner
	return p.PlanLockStep(pes, capacity)
}

// PlanLockStep is the scratch-reusing form of the package function.
func (p *Planner) PlanLockStep(pes []PETick, capacity float64) []float64 {
	alloc, _, _ := p.scratch(len(pes))
	var blockedBudget float64
	var used float64
	for i := range pes {
		if pes[i].Blocked {
			blockedBudget += pes[i].Target
			continue
		}
		g := math.Min(pes[i].Target, pes[i].Work)
		if g < 0 {
			g = 0
		}
		alloc[i] = g
		used += g
	}
	if used > capacity {
		scale := capacity / used
		for i := range alloc {
			alloc[i] *= scale
		}
		return alloc
	}
	// Redistribute only the sleeping PEs' entitlement, capped by remaining
	// work and the node budget.
	remaining := math.Min(blockedBudget, capacity-used)
	for iter := 0; iter < len(pes)+1 && remaining > 1e-15; iter++ {
		var tSum float64
		for i := range pes {
			if !pes[i].Blocked && alloc[i] < pes[i].Work {
				tSum += math.Max(pes[i].Target, 1e-9)
			}
		}
		if tSum == 0 {
			break
		}
		progressed := false
		grant := remaining
		for i := range pes {
			if pes[i].Blocked || alloc[i] >= pes[i].Work {
				continue
			}
			share := grant * math.Max(pes[i].Target, 1e-9) / tSum
			room := pes[i].Work - alloc[i]
			if share > room {
				share = room
			}
			if share > 0 {
				alloc[i] += share
				remaining -= share
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return alloc
}

// PlanStrict enforces the tier-1 targets with no redistribution at all
// (the "strict/guarantee-limit enforcement" §II describes as traditional
// practice); used as an ablation baseline.
func PlanStrict(pes []PETick, capacity float64) []float64 {
	var p Planner
	return p.PlanStrict(pes, capacity)
}

// PlanStrict is the scratch-reusing form of the package function.
func (p *Planner) PlanStrict(pes []PETick, capacity float64) []float64 {
	alloc, _, _ := p.scratch(len(pes))
	var used float64
	for i := range pes {
		if pes[i].Blocked {
			continue
		}
		g := math.Min(pes[i].Target, pes[i].Work)
		if used+g > capacity {
			g = capacity - used
		}
		if g < 0 {
			g = 0
		}
		alloc[i] = g
		used += g
	}
	return alloc
}

// lendFloor is the leftover below which a node counts as fully allocated:
// the planners stop filling at 1e-15 per step, and summing a node's
// allocations again rounds by about that much per PE.
const lendFloor = 1e-12

// Lend is the pass that follows a plan: it hands the capacity the plan
// left unallocated to the PEs that are entitled to more than the plan gave
// them, so a PE on a node with idle CPU is not held to its Work forecast
// when more arrives than the last interval brought. A PE's ceiling is the
// bound the plan enforced with Work left out — min(Tokens, Cap) after
// PlanACES, min(Target, Cap) after the Target-enforcing planners, 0 when
// Blocked — and its room is ceiling − alloc. Every PE gets its whole room
// when the leftover covers all of them, the same fraction of it otherwise:
//
//	lend[i] = room[i] · min(1, leftover / Σ room)
//
// so alloc + lend never exceeds a PE's entitlement or its Eq. 8 cap, and
// Σ(alloc + lend) never exceeds capacity. A token-bound PE has no room and
// an oversubscribed node no leftover: under overload Lend returns zeros.
//
// pes and capacity must be the ones just planned; the allocations are read
// from the planner's own scratch. The returned slice aliases scratch too
// and is valid until the next call on the same Planner.
func (p *Planner) Lend(pes []PETick, capacity float64) []float64 {
	alloc := p.alloc[:len(pes)]
	lend := p.lend[:len(pes)]
	clear(lend)
	leftover := capacity
	for _, a := range alloc {
		leftover -= a
	}
	if leftover < lendFloor {
		return lend
	}
	var rooms float64
	for i := range pes {
		if pes[i].Blocked {
			continue
		}
		ceiling := pes[i].Target
		if p.byTokens {
			ceiling = pes[i].Tokens
		}
		if room := math.Min(ceiling, pes[i].Cap) - alloc[i]; room > 0 {
			lend[i] = room
			rooms += room
		}
	}
	if rooms > leftover {
		scale := leftover / rooms
		for i := range lend {
			lend[i] *= scale
		}
	}
	return lend
}

// RateToCPU converts an output-rate bound (SDOs per tick) into the CPU
// fraction that would produce it: the inverse map g⁻¹ of §V-D with per-SDO
// cost costPerSDO (CPU-seconds), multiplicity mult (output SDOs per input
// SDO) and tick length dt seconds. A non-positive bound yields 0; an
// unconstrained bound (math.Inf) passes through.
func RateToCPU(ratePerTick, costPerSDO, mult, dt float64) float64 {
	if math.IsInf(ratePerTick, 1) {
		return math.Inf(1)
	}
	if ratePerTick <= 0 || dt <= 0 {
		return 0
	}
	if mult <= 0 {
		mult = 1
	}
	// output SDOs per tick = mult · (c·dt / cost)  ⇒  c = rate·cost/(mult·dt)
	return ratePerTick * costPerSDO / (mult * dt)
}

// CPUToRate is the forward map g: CPU fraction to output SDOs per tick.
func CPUToRate(c, costPerSDO, mult, dt float64) float64 {
	if c <= 0 || costPerSDO <= 0 {
		return 0
	}
	if mult <= 0 {
		mult = 1
	}
	return mult * c * dt / costPerSDO
}

// Feedback tracks the most recent r_max advertisements from every PE and
// answers the Eq. 8 query: a PE's output-rate bound is the maximum of its
// downstream PEs' advertised maximum input rates (the max-flow policy:
// "forward packets to all downstream PEs if there is a vacancy in the
// input buffer of its fastest downstream PE").
type Feedback struct {
	rmax map[int32]float64
	// down marks PEs whose host was judged suspect or dead by the health
	// detector (or whose supervisor circuit breaker tripped). A downed
	// PE's advertisement is ignored: it contributes 0 to the Eq. 8 max —
	// flow routes to live replicas — and, unlike a merely silent PE, it
	// does NOT make the bound unconstrained.
	down map[int32]bool
	// forgot marks PEs a retarget decommissioned (target → 0) or
	// re-placed. A forgotten PE's stale advertisement is erased and its
	// subsequent silence is NOT the cold-start kind: it contributes
	// nothing to any bound until it advertises again, at which point it
	// rejoins as a live PE.
	forgot map[int32]bool
}

// NewFeedback returns an empty feedback board.
func NewFeedback() *Feedback {
	return &Feedback{
		rmax:   make(map[int32]float64),
		down:   make(map[int32]bool),
		forgot: make(map[int32]bool),
	}
}

// Publish records PE j's advertised maximum input rate (SDOs/tick). A
// previously forgotten PE that advertises again rejoins the board.
func (f *Feedback) Publish(j int32, r float64) {
	if r < 0 {
		r = 0
	}
	delete(f.forgot, j)
	f.rmax[j] = r
}

// RMax returns PE j's last advertisement and whether one exists.
func (f *Feedback) RMax(j int32) (float64, bool) {
	r, ok := f.rmax[j]
	return r, ok
}

// MarkDown sets or clears PE j's failure mark. While marked, j is treated
// as r_max = 0 in every bound — regardless of its last advertisement,
// which a dead host can no longer retract.
func (f *Feedback) MarkDown(j int32, down bool) {
	if down {
		f.down[j] = true
	} else {
		delete(f.down, j)
	}
}

// Down reports PE j's failure mark.
func (f *Feedback) Down(j int32) bool { return f.down[j] }

// Forget erases every trace of PE j from the board: its last
// advertisement, its failure mark, everything. Retargeting calls it when
// a new epoch zeroes a PE's CPU target (the PE is being decommissioned or
// re-placed) — without it the ghost r_max would keep feeding the Eq. 8
// max forever, since a decommissioned PE never advertises a retraction.
// Unlike a never-seen PE, a forgotten one does not unconstrain its
// upstream's bound; it simply stops contributing until it publishes again.
func (f *Feedback) Forget(j int32) {
	delete(f.rmax, j)
	delete(f.down, j)
	f.forgot[j] = true
}

// Recover erases PE j's failure mark AND its stale advertisement,
// returning it to the never-seen cold-start state. Membership calls it on
// a dead → alive transition: the last advertisement predates the outage
// (often pinned near 0 by the dying host's congestion), so keeping it
// would hold upstream Eq. 8 bounds closed until a fresh feedback frame
// happens to arrive. Cold start must not stall the pipeline, so a
// recovered PE is unconstrained until its next advertisement — which the
// per-tick feedback cycle delivers within one interval.
func (f *Feedback) Recover(j int32) {
	delete(f.rmax, j)
	delete(f.down, j)
	delete(f.forgot, j)
}

// AllDown reports whether the listed PEs are all marked down (false for
// an empty list). Senders use it to detect that every downstream
// advertisement is a failure artifact and freeze their flow controller
// instead of winding it up against phantom congestion.
func (f *Feedback) AllDown(downstream []int32) bool {
	if len(downstream) == 0 {
		return false
	}
	for _, d := range downstream {
		if !f.down[d] {
			return false
		}
	}
	return true
}

// OutputBound implements Eq. 8 for a PE with the given downstream set:
// max over downstream advertisements. PEs that have not advertised yet are
// treated as unconstrained (cold start must not stall the pipeline), so the
// bound is +Inf if any downstream is silent; egress PEs (no downstream) are
// unconstrained. Downed and forgotten PEs contribute 0 — and their silence
// does NOT unconstrain the bound: a dead downstream's vacancy is not
// capacity, and a decommissioned one has no buffer at all.
func (f *Feedback) OutputBound(downstream []int32) float64 {
	if len(downstream) == 0 {
		return math.Inf(1)
	}
	bound := 0.0
	for _, d := range downstream {
		if f.down[d] || f.forgot[d] {
			continue
		}
		r, ok := f.rmax[d]
		if !ok {
			return math.Inf(1)
		}
		if r > bound {
			bound = r
		}
	}
	return bound
}

// MinBound is the min-flow counterpart of OutputBound, used by the
// Lock-Step ablation: the slowest downstream PE gates the sender. A downed
// PE gates at 0 — min-flow semantics say the sender must not outrun ANY
// downstream, and a dead one accepts nothing.
func (f *Feedback) MinBound(downstream []int32) float64 {
	if len(downstream) == 0 {
		return math.Inf(1)
	}
	bound := math.Inf(1)
	for _, d := range downstream {
		if f.down[d] {
			return 0
		}
		if f.forgot[d] {
			continue
		}
		r, ok := f.rmax[d]
		if !ok {
			continue
		}
		if r < bound {
			bound = r
		}
	}
	return bound
}

// GroupedOutputBound is Eq. 8 for a sender whose downstream PEs are
// replica groups: groups[d] lists the feedback keys of the ACTIVE replicas
// of logical PE d, the group's capacity is the SUM of its members'
// advertisements (any replica can absorb any key's share of the stream),
// and the bound is the max over downstream groups, exactly as OutputBound
// takes the max over PEs. Member semantics match the singleton bound:
// downed and forgotten replicas contribute 0 without unconstraining, a
// silent never-seen member makes the whole bound +Inf (cold start must not
// stall), and a singleton group reproduces OutputBound bit for bit.
func (f *Feedback) GroupedOutputBound(groups [][]int32, downstream []int32) float64 {
	if len(downstream) == 0 {
		return math.Inf(1)
	}
	bound := 0.0
	for _, d := range downstream {
		sum := 0.0
		for _, k := range groups[d] {
			if f.down[k] || f.forgot[k] {
				continue
			}
			r, ok := f.rmax[k]
			if !ok {
				return math.Inf(1)
			}
			sum += r
		}
		if sum > bound {
			bound = sum
		}
	}
	return bound
}

// GroupedMinBound is the min-flow counterpart of GroupedOutputBound: the
// slowest downstream GROUP gates the sender, a group's capacity being the
// sum over its live members. A fully-downed group gates at 0 (a dead
// group accepts nothing); partially-downed members just contribute 0.
// Singleton groups reproduce MinBound exactly.
func (f *Feedback) GroupedMinBound(groups [][]int32, downstream []int32) float64 {
	if len(downstream) == 0 {
		return math.Inf(1)
	}
	bound := math.Inf(1)
	for _, d := range downstream {
		sum := 0.0
		seen := false
		allDown := len(groups[d]) > 0
		for _, k := range groups[d] {
			if f.down[k] {
				continue
			}
			allDown = false
			if f.forgot[k] {
				continue
			}
			r, ok := f.rmax[k]
			if !ok {
				continue
			}
			sum += r
			seen = true
		}
		if allDown {
			return 0
		}
		if !seen {
			continue
		}
		if sum < bound {
			bound = sum
		}
	}
	return bound
}

// GroupedAllDown reports whether every replica of every downstream group
// is marked down (false for an empty downstream set). Singleton groups
// reproduce AllDown exactly.
func (f *Feedback) GroupedAllDown(groups [][]int32, downstream []int32) bool {
	if len(downstream) == 0 {
		return false
	}
	for _, d := range downstream {
		if len(groups[d]) == 0 {
			return false
		}
		for _, k := range groups[d] {
			if !f.down[k] {
				return false
			}
		}
	}
	return true
}

// String renders the board for debugging.
func (f *Feedback) String() string {
	return fmt.Sprintf("feedback{%d PEs}", len(f.rmax))
}
