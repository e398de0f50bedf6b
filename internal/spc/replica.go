// Elastic PE parallelism: one logical PE backed by N replica slots, each
// a full peRuntime (own buffer, supervisor slot, token bucket, flow
// controller), with SDOs routed to replicas by partition-key hash and the
// Eq. 8 output bound aggregated over the replica GROUP (sum of member
// advertisements — any replica can absorb any key's share).
//
// Replica slots are declared in the topology (PE.MaxReplicas and
// ReplicaPlacement) and pre-built at NewCluster; which slots are ACTIVE is
// pure retargeting state. A slot is active when its per-slot CPU target is
// positive, so scaling out, scaling in and migrating a replica between
// nodes are all the same hitless operation: install a new epoch whose
// per-slot targets differ, let each node scheduler fold the rates into its
// token buckets at the top of a tick, and drain a deactivated slot's
// buffer through the new epoch's routes. No goroutine starts or stops, no
// buffer is lost, and a topology that never scales out behaves bit for bit
// like the pre-elastic runtime (singleton rings, singleton groups).
package spc

import (
	"errors"
	"fmt"
	"math"

	"aces/internal/obs"
	"aces/internal/sdo"
)

// repKey composes the feedback-board key of replica slot (j, rep). Slot 0's
// key IS the PE id, so every pre-elastic advertisement, bound and wire
// frame keeps its exact meaning; replica slots occupy the high bits that a
// topology can never reach (PE ids are bounded far below 2^20).
func repKey(j, rep int32) int32 { return j | rep<<20 }

// replicaRef is one routing-ring entry: a replica slot of a logical PE.
// pr is nil when the slot lives in a peer process (route over the uplink).
type replicaRef struct {
	pr  *peRuntime
	pe  sdo.PEID
	rep int32
}

// routeRingSize is the ring length used when a PE has more than one active
// replica: targets are apportioned to ring entries by largest remainder,
// so a replica's share of the key space tracks its share of the group's
// CPU target within 1/32.
const routeRingSize = 32

// routeIndex hashes an SDO onto a ring of n entries. Keyed SDOs
// (partition-aware routing) stick to one replica for the life of the key;
// unkeyed SDOs spread per-SDO by (Stream, Seq). The splitmix64 finalizer
// decorrelates adjacent keys/sequences from ring geometry.
func routeIndex(s sdo.SDO, n int) int {
	k := s.Key
	if k == 0 {
		k = uint64(s.Stream)<<32 ^ s.Seq ^ 0x9E3779B97F4A7C15
	}
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return int(k % uint64(n))
}

// slot returns the CPU target of replica slot (j, rep) under this set. A
// set installed through the logical path (SetTargets) has no per-slot
// matrix; it collapses every group onto the primary.
func (ts *targetSet) slot(j sdo.PEID, rep int32) float64 {
	if ts.rep == nil {
		if rep == 0 {
			return ts.cpu[j]
		}
		return 0
	}
	return ts.rep[j][rep]
}

// pick routes one SDO to a replica slot of logical PE j.
func (ts *targetSet) pick(j sdo.PEID, s sdo.SDO) replicaRef {
	ring := ts.route[j]
	if len(ring) == 1 {
		return ring[0]
	}
	return ring[routeIndex(s, len(ring))]
}

// pickLocal routes an injected SDO to a LOCAL replica slot of PE j,
// probing forward from the hash position so a remote slot's share falls
// to the next local one. Returns nil when no slot of j is hosted here.
func (ts *targetSet) pickLocal(j sdo.PEID, s sdo.SDO) *peRuntime {
	ring := ts.route[j]
	if len(ring) == 1 {
		return ring[0].pr
	}
	i := routeIndex(s, len(ring))
	for off := 0; off < len(ring); off++ {
		if pr := ring[(i+off)%len(ring)].pr; pr != nil {
			return pr
		}
	}
	return nil
}

// ref builds the ring entry for slot (j, r); pr stays nil for slots hosted
// by peer processes.
func (c *Cluster) ref(j sdo.PEID, r int32) replicaRef {
	var pr *peRuntime
	if int(r) < len(c.replicas[j]) {
		pr = c.replicas[j][r]
	}
	return replicaRef{pr: pr, pe: j, rep: r}
}

// makeTargetSet builds the full immutable target set for an epoch: per-PE
// routing rings weighted by the slot targets and per-PE feedback-key
// groups listing the ACTIVE slots. A PE with no active slot (target 0
// everywhere, or a logical set's dormant replicas) falls back to a
// singleton primary ring and group, which reproduces the pre-elastic
// runtime exactly — routing still has somewhere to put an SDO, and the
// bounds still watch the (forgotten or silent) primary key.
func (c *Cluster) makeTargetSet(term, epoch uint64, cpu []float64, rep [][]float64) *targetSet {
	t := c.cfg.Topo
	p := t.NumPEs()
	ts := &targetSet{term: term, epoch: epoch, cpu: cpu, rep: rep}
	ts.route = make([][]replicaRef, p)
	ts.groupKeys = make([][]int32, p)
	for j := 0; j < p; j++ {
		slots := t.Replicas(sdo.PEID(j))
		var act []int32
		var w []float64
		for r := 0; r < slots; r++ {
			if v := ts.slot(sdo.PEID(j), int32(r)); v > 0 {
				act = append(act, int32(r))
				w = append(w, v)
			}
		}
		if len(act) == 0 {
			act, w = []int32{0}, []float64{1}
		}
		keys := make([]int32, len(act))
		for i, r := range act {
			keys[i] = repKey(int32(j), r)
		}
		ts.groupKeys[j] = keys
		if len(act) == 1 {
			ts.route[j] = []replicaRef{c.ref(sdo.PEID(j), act[0])}
			continue
		}
		ts.route[j] = c.buildRing(sdo.PEID(j), act, w)
	}
	ts.nodeSum = make([]float64, len(c.nodes))
	for n, peers := range c.nodes {
		for _, pr := range peers {
			ts.nodeSum[n] += ts.slot(pr.id, pr.rep)
		}
	}
	return ts
}

// buildRing apportions routeRingSize entries over the active slots by
// largest remainder — every active slot gets at least one entry, and the
// rest follow the CPU-target shares — then interleaves them so adjacent
// hash positions land on different replicas (unkeyed round-robin spreading
// instead of runs).
func (c *Cluster) buildRing(j sdo.PEID, act []int32, w []float64) []replicaRef {
	n := len(act)
	total := 0.0
	for _, v := range w {
		total += v
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	used := 0
	for i, v := range w {
		exact := v / total * float64(routeRingSize-n)
		counts[i] = 1 + int(exact)
		rem[i] = exact - math.Floor(exact)
		used += counts[i]
	}
	for used < routeRingSize {
		best := 0
		for i := 1; i < n; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		used++
	}
	ring := make([]replicaRef, 0, used)
	idx := make([]int, n)
	for len(ring) < used {
		for i := range act {
			if idx[i] < counts[i] {
				ring = append(ring, c.ref(j, act[i]))
				idx[i]++
			}
		}
	}
	return ring
}

// ElasticLink is the optional RemoteLink extension carrying
// replica-addressed SDOs. Links that do not implement it deliver by
// logical PE instead; the receiver re-routes among its local replicas.
type ElasticLink interface {
	SendReplicaSDO(to sdo.PEID, rep int32, s sdo.SDO) error
}

// sendReplicaSDO forwards an SDO to a replica slot hosted by a peer
// process, degrading to logical delivery when the uplink cannot address
// slots.
func (c *Cluster) sendReplicaSDO(d sdo.PEID, rep int32, s sdo.SDO) error {
	if c.els != nil {
		return c.els.SendReplicaSDO(d, rep, s)
	}
	if c.cfg.Uplink == nil {
		return fmt.Errorf("spc: no uplink for remote replica %d/%d", d, rep)
	}
	return c.cfg.Uplink.SendSDO(d, s)
}

// SetReplicaTargets applies a per-replica-slot target matrix under the
// given epoch and disseminates it. rep[j] must have exactly
// Topology.Replicas(j) entries; a slot's target of 0 deactivates it, which
// drains its buffer through the new epoch's routes on the owning node's
// next tick. Epoch semantics match SetTargets: strictly newer or
// ErrStaleEpoch.
func (c *Cluster) SetReplicaTargets(epoch uint64, rep [][]float64) error {
	if err := c.applyReplicaTargets(c.ctrlTerm.Load(), epoch, rep); err != nil {
		return err
	}
	c.broadcastTargets()
	return nil
}

// InjectTermReplicaTargets applies a replica target set received from a
// peer process. Stale epochs and deposed terms are dropped silently;
// nothing is re-broadcast outside the tree. Tree relays forward fresh
// epochs to their children and ack every received frame upward, exactly
// as InjectTermTargets does.
func (c *Cluster) InjectTermReplicaTargets(term, epoch uint64, rep [][]float64) {
	c.noteCtrlFrame(term)
	err := c.applyReplicaTargets(term, epoch, rep)
	if err != nil && !errors.Is(err, ErrStaleEpoch) {
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

func (c *Cluster) applyReplicaTargets(term, epoch uint64, rep [][]float64) error {
	t := c.cfg.Topo
	if len(rep) != t.NumPEs() {
		return fmt.Errorf("spc: replica targets have %d rows, topology has %d PEs", len(rep), t.NumPEs())
	}
	clean := make([][]float64, len(rep))
	cpu := make([]float64, len(rep))
	for j := range rep {
		want := t.Replicas(sdo.PEID(j))
		if len(rep[j]) != want {
			return fmt.Errorf("spc: PE %d has %d replica targets, topology declares %d slots", j, len(rep[j]), want)
		}
		clean[j] = make([]float64, want)
		for r, v := range rep[j] {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("spc: target for PE %d replica %d is %v", j, r, v)
			}
			clean[j][r] = v
			cpu[j] += v
		}
	}
	return c.installTargets(c.makeTargetSet(term, epoch, cpu, clean))
}

// installTargets CASes a built target set in (strictly newer (term,
// epoch) pairs only — lexicographic, so a new term admits ANY epoch and
// a deposed term is fenced at ANY epoch) and forgets the feedback keys of
// every slot the new epoch deactivates — without that, a decommissioned
// replica's ghost r_max would feed its group's bound forever, since it
// will never advertise a retraction.
func (c *Cluster) installTargets(ts *targetSet) error {
	t := c.cfg.Topo
	for {
		cur := c.targets.Load()
		if ts.term < cur.term {
			c.noteFenced()
			return ErrDeposedTerm
		}
		if ts.term == cur.term && ts.epoch <= cur.epoch {
			return ErrStaleEpoch
		}
		if !c.targets.CompareAndSwap(cur, ts) {
			continue
		}
		for j := 0; j < t.NumPEs(); j++ {
			for r := 0; r < t.Replicas(sdo.PEID(j)); r++ {
				if cur.slot(sdo.PEID(j), int32(r)) > 0 && ts.slot(sdo.PEID(j), int32(r)) == 0 {
					c.fb.forget(repKey(int32(j), int32(r)))
				}
			}
		}
		c.retargets.Add(1)
		// Stamp the freshness clock the stale-target safety mode watches:
		// a fresh (term, epoch) just landed, so any degradation blend in
		// progress unwinds on the next scheduler tick.
		c.lastFresh.Store(math.Float64bits(c.clock.Now()))
		if c.gEpoch != nil {
			c.gEpoch.Set(float64(ts.epoch))
		}
		if c.gTerm != nil {
			c.gTerm.Set(float64(ts.term))
		}
		return nil
	}
}

// noteFenced counts one frame rejected for carrying a deposed controller
// term — the observable proof that fencing is working.
func (c *Cluster) noteFenced() {
	c.fenced.Add(1)
	if c.reg != nil {
		c.reg.Counter("retarget_fenced_total", nil).Inc()
	}
}

// FencedFrames returns how many deposed-term target frames this process
// has fenced.
func (c *Cluster) FencedFrames() int64 { return c.fenced.Load() }

// drainReplica empties a deactivated slot's buffer through the NEW epoch's
// routes (scheduler goroutine of the slot's node only, right after the
// epoch's rates are applied): queued SDOs migrate to the replicas that now
// own their keys instead of rotting behind a zero-rate bucket. The slot's
// goroutine keeps running — a later epoch can reactivate it hitlessly —
// and a final budget grant lets an SDO popped before the drain finish
// service even though the bucket will never earn again.
func (c *Cluster) drainReplica(pr *peRuntime, tgt *targetSet) {
	for {
		s, ok := pr.buf.TryPop()
		if !ok {
			break
		}
		ref := tgt.pick(pr.id, s)
		if ref.pr == pr {
			// Fallback ring still points here (no slot of the group is
			// active anywhere); nothing better to do than keep it queued.
			pr.buf.TryPush(s)
			break
		}
		if ref.pr != nil {
			c.admit(ref.pr, s)
			continue
		}
		if err := c.sendReplicaSDO(ref.pe, ref.rep, s); err != nil {
			c.col.inFlightDrop(c.clock.Now(), s.Hops)
			c.traceDrop(s, int32(ref.pe), -1, obs.EventUplinkDrop)
		}
	}
	pr.grant(2 * pr.cost(c.clock.Now()))
}

// ActiveReplicas reports how many replica slots of PE j are active under
// the applied target set (1 for a PE that never scaled out — the primary
// fallback routes even when its target is 0).
func (c *Cluster) ActiveReplicas(j sdo.PEID) int {
	ts := c.targets.Load()
	if ts.rep == nil {
		return 1
	}
	n := 0
	for _, v := range ts.rep[j] {
		if v > 0 {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// ReplicaTargetsSnapshot returns the applied epoch and a copy of the
// per-slot target matrix; the matrix is nil when the applied set came
// through the logical path (primary-only collapse).
func (c *Cluster) ReplicaTargetsSnapshot() (uint64, [][]float64) {
	ts := c.targets.Load()
	if ts.rep == nil {
		return ts.epoch, nil
	}
	out := make([][]float64, len(ts.rep))
	for j := range ts.rep {
		out[j] = append([]float64(nil), ts.rep[j]...)
	}
	return ts.epoch, out
}

// InjectReplicaSDO delivers a replica-addressed SDO from a peer process to
// the named local slot, with the same admission semantics as InjectSDO.
// A slot this process does not host (stale placement view at the sender)
// degrades to logical delivery so the SDO survives.
func (c *Cluster) InjectReplicaSDO(to sdo.PEID, rep int32, s sdo.SDO) {
	if int(to) < 0 || int(to) >= len(c.replicas) ||
		rep < 0 || int(rep) >= len(c.replicas[to]) || c.replicas[to][rep] == nil {
		c.InjectSDO(to, s)
		return
	}
	if s.Trace != 0 {
		s.TraceEnq = c.clock.Now()
	}
	c.admit(c.replicas[to][rep], s)
}
