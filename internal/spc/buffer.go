package spc

import (
	"context"
	"sync/atomic"
	"time"

	"aces/internal/ring"
	"aces/internal/sdo"
)

// Buffer is a bounded FIFO of SDOs guarding one PE's input. TryPush never
// blocks (UDP / max-flow semantics: a full buffer drops); Push blocks until
// space or context cancellation (lock-step semantics). Pop blocks until an
// SDO is available or the context is done.
//
// Since ISSUE 10 the implementation is a lock-free ring (internal/ring)
// instead of a mutex+cond deque: the steady-state push/pop cost is a
// couple of uncontended atomics, and blocked producers/consumers park on
// a cond var only after spinning out. Capacity semantics are unchanged
// and exact — shed thresholds and drop rates see the same occupancy the
// old implementation reported.
//
// The push side is always multi-producer: upstream PE emitters, sources,
// bridge injection and the replica drain can all target one buffer, and
// the exported Inject* APIs mean single-producer ownership is never
// provable from the topology alone. The pop side runs the ring's
// single-consumer fast path for primary slots (rep 0), whose only
// consumer is the PE goroutine; replica slots (rep > 0) are also popped
// by the scheduler's scale-in drain, so they stay multi-consumer.
//
// A buffered SDO is held as a slot, one 64-byte cell with no pointer
// words, and its payload in the ring's side array, which exists only once
// a payload has arrived: a buffer of header-only SDOs is memory the
// collector never scans. See slot for what a buffer keeps of an SDO.
type Buffer struct {
	r *ring.Ring[slot]
}

// slot is a buffered SDO without its payload: 56 bytes, no pointers, so
// that with the ring's sequence word a cell is one cache line the
// collector skips. What it keeps of an SDO:
//
//   - Stream, Seq, Trace, TraceEnq and Key exactly;
//   - Hops as an int32, as the wire carries it;
//   - Bytes exactly in [-2^51, 2^51), sharing its word with the origin's
//     tag;
//   - Origin as the same instant: Equal to the one pushed, with a
//     monotonic reading if and only if it had one (so every
//     now.Sub(Origin) reads as before) and the same wall reading (which
//     is what the wire carries), less its Location, as on the wire. See
//     clockAnchors for the one case that keeps only the monotonic
//     reading exactly. One without a monotonic reading is kept as its
//     UnixNano, so any origin the wire can carry round-trips; a zero
//     origin stays zero.
type slot struct {
	stream   sdo.StreamID
	hops     int32
	seq      uint64
	origin   int64  // monotonic ns since the process's base instant (originMono), or UnixNano (originWall)
	meta     uint64 // Bytes<<tagBits | anchor<<formBits | form
	trace    uint64
	traceEnq float64
	key      uint64
}

// An origin's tag, the low tagBits of meta: its form, and for a
// monotonic origin the index of the anchor it is rebuilt from.
const (
	originMono = iota // has a monotonic reading
	originWall        // wall clock only: origin is its UnixNano
	originZero        // the zero Time
	formBits   = 2
	anchorBits = 10
	tagBits    = formBits + anchorBits
	formMask   = 1<<formBits - 1
)

// clockAnchors rebuilds origins that carry a monotonic reading with both
// readings exact. time.Time cannot set one reading apart from the other
// (Add moves both, Round(0) drops the monotonic one), and each time.Now()
// has its own gap between the two: its two clock reads are a few ns
// apart (0–30 ns on a 2-core Xeon VM, 239 distinct gaps in 2M calls).
// Rebuilding every origin from one base instant would keep its monotonic
// reading but move its wall reading by the difference of the two gaps,
// and the wall reading is what crosses the wire. So an origin is rebuilt
// from an anchor with its own gap: the first origin seen with that gap.
//
// Anchors are found by gap modulo the table size and never replaced, as
// a buffered slot may name one. A gap whose entry already holds another
// (after the wall clock is stepped, say) falls back to the base instant,
// anchor 0: Equal and Sub still hold, and the wall reading is the base's
// plus the monotonic offset.
type clockAnchors struct {
	base     time.Time // anchor 0's instant
	baseUnix int64     // base's wall reading, UnixNano
	at       [1 << anchorBits]atomic.Pointer[clockAnchor]
}

// clockAnchor is an origin kept to rebuild the origins sharing its gap.
// Every push and pop reads one; the padding gives it a cache line of its
// own, which no write to a neighbouring object can steal.
type clockAnchor struct {
	t    time.Time
	gap  int64 // wall minus monotonic offset from the base, ns
	mono int64 // monotonic offset from the base, ns
	_    [24]byte
}

func newClockAnchors(base time.Time) *clockAnchors {
	a := &clockAnchors{base: base, baseUnix: base.UnixNano()}
	a.at[0].Store(&clockAnchor{t: base})
	return a
}

// anchors serves every buffer in the process.
var anchors = newClockAnchors(time.Now())

// encode returns t's monotonic offset from the base and the index of the
// anchor to rebuild it from, or ok false when t carries no monotonic
// reading.
func (a *clockAnchors) encode(t time.Time) (mono int64, i uint64, ok bool) {
	mono = int64(t.Sub(a.base))
	gap := t.UnixNano() - a.baseUnix - mono
	// Within 2^62 ns of the base, Sub of a wall-only t is its exact wall
	// difference, so a nonzero gap proves a monotonic reading; a zero gap
	// (or a t that far away) takes the slower test.
	if (gap == 0 || mono <= -1<<62 || mono >= 1<<62) && t.Round(0) == t {
		return 0, 0, false
	}
	i = uint64(gap) & (1<<anchorBits - 1)
	e := a.at[i].Load()
	if e == nil {
		a.at[i].CompareAndSwap(nil, &clockAnchor{t: t, gap: gap, mono: mono})
		e = a.at[i].Load()
	}
	if e.gap != gap {
		return mono, 0, true
	}
	return mono, i, true
}

// decode rebuilds the origin encode was given.
func (a *clockAnchors) decode(mono int64, i uint64) time.Time {
	e := a.at[i].Load()
	return e.t.Add(time.Duration(mono - e.mono))
}

// pack stores s, less its payload, into c.
func (c *slot) pack(s *sdo.SDO) {
	origin, i, mono := anchors.encode(s.Origin)
	tag := i<<formBits | originMono
	if !mono {
		if s.Origin.IsZero() {
			tag = originZero
		} else {
			origin, tag = s.Origin.UnixNano(), originWall
		}
	}
	c.stream, c.hops, c.seq = s.Stream, int32(s.Hops), s.Seq
	c.origin, c.meta = origin, uint64(s.Bytes)<<tagBits|tag
	c.trace, c.traceEnq, c.key = s.Trace, s.TraceEnq, s.Key
}

// unpack rebuilds into s, field by field (no temporary to copy), the
// SDO that c and payload were packed from.
func (c *slot) unpack(s *sdo.SDO, payload any) {
	switch c.meta & formMask {
	case originMono:
		s.Origin = anchors.decode(c.origin, c.meta&(1<<tagBits-1)>>formBits)
	case originWall:
		s.Origin = time.Unix(0, c.origin)
	default:
		s.Origin = time.Time{}
	}
	s.Stream, s.Seq, s.Hops = c.stream, c.seq, int(c.hops)
	s.Bytes = int(int64(c.meta) >> tagBits)
	s.Trace, s.TraceEnq, s.Key = c.trace, c.traceEnq, c.key
	s.Payload = payload
}

// NewBuffer creates a buffer with the given capacity in SDOs. It is safe
// for any number of concurrent producers and consumers.
func NewBuffer(capacity int) *Buffer { return newBufferMode(capacity, ring.MPMC) }

// newBufferMode creates a buffer with an explicit ring mode; the cluster
// uses it to claim the single-consumer fast path for primary slots.
func newBufferMode(capacity int, mode ring.Mode) *Buffer {
	if capacity <= 0 {
		panic("spc: buffer capacity must be positive")
	}
	return &Buffer{r: ring.New[slot](capacity, mode)}
}

// Len returns the current occupancy.
func (b *Buffer) Len() int { return b.r.Len() }

// Cap returns the capacity.
func (b *Buffer) Cap() int { return b.r.Cap() }

// Admitted returns how many SDOs the buffer has ever accepted. The Δt
// scheduler differences it across ticks to count an interval's arrivals.
func (b *Buffer) Admitted() uint64 { return b.r.Pushed() }

// TryPush appends s if space is available and reports success.
func (b *Buffer) TryPush(s sdo.SDO) bool {
	var c slot
	c.pack(&s)
	return b.r.TryPushRef(&c, s.Payload)
}

// Push blocks until space is available or ctx is done; it returns false
// when the buffer closed or the context was cancelled. A blocked Push
// arms a cancellation waker, so a caller that cancels without closing
// the buffer cannot hang.
func (b *Buffer) Push(ctx context.Context, s sdo.SDO) bool {
	var c slot
	c.pack(&s)
	return b.r.PushRef(ctx, &c, s.Payload)
}

// Pop blocks until an SDO is available; ok is false when the buffer is
// closed and drained, or the context is done. Like Push, a blocked Pop
// is covered by a cancellation waker — cancelling the context alone
// unblocks it (the PR 3 implementation armed the waker only on the push
// side, so a cancelled consumer on an idle buffer hung forever).
func (b *Buffer) Pop(ctx context.Context) (s sdo.SDO, ok bool) {
	var c slot
	payload, ok := b.r.PopRef(ctx, &c)
	if ok {
		c.unpack(&s, payload)
	}
	return s, ok
}

// TryPop removes the head SDO without blocking.
func (b *Buffer) TryPop() (s sdo.SDO, ok bool) {
	var c slot
	payload, ok := b.r.TryPopRef(&c)
	if ok {
		c.unpack(&s, payload)
	}
	return s, ok
}

// Close marks the buffer closed and wakes all waiters. It is idempotent:
// closing an already-closed buffer is a no-op (the supervisor and the
// cluster's Stop may both reach a buffer).
//
// Post-Close semantics, relied on by the PE supervisor's crash-recovery
// path and locked in by tests:
//
//   - Push and TryPush fail immediately (return false); no SDO is ever
//     admitted after Close, even if space is free.
//   - Pop and TryPop keep draining the items buffered before Close —
//     shutdown does not forfeit accepted data — and only report failure
//     once the buffer is empty.
func (b *Buffer) Close() { b.r.Close() }
