package spc

import (
	"context"

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
type Buffer struct {
	r *ring.Ring[sdo.SDO]
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
	return &Buffer{r: ring.New[sdo.SDO](capacity, mode)}
}

// Len returns the current occupancy.
func (b *Buffer) Len() int { return b.r.Len() }

// Cap returns the capacity.
func (b *Buffer) Cap() int { return b.r.Cap() }

// Admitted returns how many SDOs the buffer has ever accepted. The Δt
// scheduler differences it across ticks to count an interval's arrivals.
func (b *Buffer) Admitted() uint64 { return b.r.Pushed() }

// TryPush appends s if space is available and reports success.
func (b *Buffer) TryPush(s sdo.SDO) bool { return b.r.TryPush(s) }

// Push blocks until space is available or ctx is done; it returns false
// when the buffer closed or the context was cancelled. A blocked Push
// arms a cancellation waker, so a caller that cancels without closing
// the buffer cannot hang.
func (b *Buffer) Push(ctx context.Context, s sdo.SDO) bool { return b.r.Push(ctx, s) }

// Pop blocks until an SDO is available; ok is false when the buffer is
// closed and drained, or the context is done. Like Push, a blocked Pop
// is covered by a cancellation waker — cancelling the context alone
// unblocks it (the PR 3 implementation armed the waker only on the push
// side, so a cancelled consumer on an idle buffer hung forever).
func (b *Buffer) Pop(ctx context.Context) (s sdo.SDO, ok bool) { return b.r.Pop(ctx) }

// TryPop removes the head SDO without blocking.
func (b *Buffer) TryPop() (s sdo.SDO, ok bool) { return b.r.TryPop() }

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
