// Package ring implements the bounded lock-free queue behind the data
// plane's hot paths: PE input buffers (internal/spc) and the transport
// outbox (internal/transport). The core is a Vyukov-style array queue —
// one sequence atomic per cell, power-of-two sizing, cache-line-padded
// enqueue/dequeue cursors — specialized at construction for single- or
// multi-producer/consumer use: a structurally exclusive side replaces
// its CAS with a plain store, which is what makes the SPSC configuration
// a pure load/store handoff with no atomic read-modify-write at all.
//
// Capacity is exact, independent of the power-of-two backing array: a
// TryPush fails once Len() == Cap(), never before, so drop-rate
// semantics match the mutex implementation this replaces. (Proof sketch
// for the multi-producer case: a winning claim of position H verified
// H − tail < cap against a tail value read before the claim; tail only
// grows, so H+1 − tail ≤ cap holds at and after the claim.)
//
// Blocking Push/Pop use a spin-then-park waiter: a few yielding retries
// and then a cond-var park, guarded by a per-side waiter count so the
// opposite side pays one atomic load per operation while nobody waits.
// A park under a cancellable context arms a context.AfterFunc waker — on
// BOTH sides; Pop's park is what regressed when only Push armed it
// (ISSUE 10). The waker is armed once per (ring, context) and then shared
// by every later park under that context, so a consumer that parks per
// burst (a PE between arrivals) allocates nothing to do so.
//
// Close is idempotent and the post-Close contract matches spc.Buffer's:
// pushes fail immediately, pops drain what was accepted before Close
// and only then report failure. Close is not a memory barrier against
// in-flight concurrent pushes — an admit racing Close may land; it is
// never lost, because the drain picks it up.
//
// An element may carry one pointer-bearing companion beside its cell
// (TryPushRef/PushRef, TryPopRef/PopRef): a ring of pointer-free cells
// is memory the collector never scans, and the companion goes into a
// side array of any, indexed like the cells, that the ring allocates
// only when it is first handed a non-nil companion. A ring that is never
// handed one (the transport outbox, any ring filled through TryPush or
// Push) never allocates it.
package ring

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Mode selects the construction-time exclusivity fast paths. Claiming a
// single-producer (resp. single-consumer) ring while pushing (popping)
// from two goroutines is a data race; when in doubt use MPMC, which is
// always safe.
type Mode uint8

const (
	// MPMC is the fully general (and always safe) configuration.
	MPMC Mode = 0
	// SingleProducer promises at most one concurrent pusher.
	SingleProducer Mode = 1 << 0
	// SingleConsumer promises at most one concurrent popper.
	SingleConsumer Mode = 1 << 1
	// SPSC is the classic two-goroutine handoff configuration.
	SPSC Mode = SingleProducer | SingleConsumer
)

// cell is one ring slot. seq encodes the slot's lap state relative to
// its index i, so that a zeroed array is the initial state: with lap =
// pos − i (pos &^ mask), seq == lap means free for the producer claiming
// position pos; seq == lap+1 means filled for the consumer at pos; seq ==
// lap+size means released for the producer's next lap.
type cell[T any] struct {
	seq atomic.Uint64
	val T
}

// pad keeps the hot cursors on separate cache lines from each other and
// from the read-mostly header fields; without it every push invalidates
// the popper's cached line and vice versa.
type pad [56]byte

// Ring is the bounded queue. The zero value is not usable; call New.
type Ring[T any] struct {
	cells []cell[T]
	// side holds each cell's companion at the cell's index, nil until the
	// first non-nil companion arrives. Publishing it is a CAS that never
	// takes mu: tryPush runs under mu on Push's park path.
	side atomic.Pointer[[]any]
	mask uint64
	cap  uint64
	sp   bool // single producer: plain-store head
	sc   bool // single consumer: plain-store tail

	_    pad
	head atomic.Uint64 // next position to claim for enqueue
	_    pad
	tail atomic.Uint64 // next position to claim for dequeue
	_    pad

	closed atomic.Bool

	// Park state. pushWait/popWait are read by the opposite side after
	// every successful operation; incrementing them under mu before the
	// final lock-free retry is the Dekker handshake that makes parking
	// lose no wakeups.
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	pushWait atomic.Int32
	popWait  atomic.Int32
	// wakers lists the contexts with an armed cancellation waker (guarded
	// by mu). An entry leaves when its context fires or the ring closes.
	wakers []waker
}

// waker is one armed cancellation waker. The context's Done channel is
// its identity: contexts that share one are cancelled together, so they
// can share the waker too.
type waker struct {
	done <-chan struct{}
	stop func() bool
}

// New creates a ring holding at most capacity elements. The backing
// array is the next power of two ≥ capacity; Cap() still reports (and
// enforces) the exact requested capacity.
func New[T any](capacity int, mode Mode) *Ring[T] {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	size := 1 << bits.Len(uint(capacity-1))
	r := &Ring[T]{
		cells: make([]cell[T], size),
		mask:  uint64(size - 1),
		cap:   uint64(capacity),
		sp:    mode&SingleProducer != 0,
		sc:    mode&SingleConsumer != 0,
	}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	return r
}

// Cap returns the exact logical capacity.
func (r *Ring[T]) Cap() int { return int(r.cap) }

// Len returns the current occupancy. It is a racy snapshot under
// concurrency, but never negative and never exceeds Cap. (Reading tail
// before head keeps head ≥ the tail we read, since both only grow.)
func (r *Ring[T]) Len() int {
	t := r.tail.Load()
	h := r.head.Load()
	n := int(h - t)
	if n < 0 {
		n = 0
	}
	if n > int(r.cap) {
		n = int(r.cap)
	}
	return n
}

// Pushed returns how many elements the ring has ever accepted (the
// enqueue cursor). It only grows, so the difference between two reads is
// the number of pushes in between.
func (r *Ring[T]) Pushed() uint64 { return r.head.Load() }

// Closed reports whether Close has been called.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }

// Close marks the ring closed, wakes every parked waiter and disarms the
// cancellation wakers (nothing parks on a closed ring, and a long-lived
// context must not keep a dead ring reachable). Idempotent.
func (r *Ring[T]) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.mu.Lock()
	for _, w := range r.wakers {
		w.stop()
	}
	r.wakers = nil
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
	r.mu.Unlock()
}

// sideArray returns the companion array, allocating and publishing it
// on first use. Racing first users each allocate; one CAS wins and the
// losers adopt the winner's array.
func (r *Ring[T]) sideArray() []any {
	if p := r.side.Load(); p != nil {
		return *p
	}
	a := make([]any, len(r.cells))
	if r.side.CompareAndSwap(nil, &a) {
		return a
	}
	return *r.side.Load()
}

// tryPush is the lock-free core: it performs no waiter wakeup, so the
// park paths can call it while holding r.mu. It copies *v into the
// claimed cell and a non-nil ref into the side array, both before the
// cell is published.
func (r *Ring[T]) tryPush(v *T, ref any) bool {
	if r.closed.Load() {
		return false
	}
	var side []any
	if ref != nil {
		side = r.sideArray() // before the claim: a claimed cell stalls its consumer
	}
	if r.sp {
		pos := r.head.Load()
		if pos-r.tail.Load() >= r.cap {
			return false
		}
		c, lap := &r.cells[pos&r.mask], pos&^r.mask
		// A consumer that claimed the slot's previous occupant may not
		// have released it yet (tail moved, seq not); the window is a
		// few instructions, but on one core the consumer needs the
		// scheduler to finish it.
		for int64(c.seq.Load())-int64(lap) < 0 {
			runtime.Gosched()
		}
		c.val = *v
		if ref != nil {
			side[pos&r.mask] = ref
		}
		c.seq.Store(lap + 1) // publish after the value write
		r.head.Store(pos + 1)
		return true
	}
	for spins := 0; ; {
		pos := r.head.Load()
		if pos-r.tail.Load() >= r.cap {
			return false
		}
		c, lap := &r.cells[pos&r.mask], pos&^r.mask
		d := int64(c.seq.Load()) - int64(lap)
		if d == 0 {
			if r.head.CompareAndSwap(pos, pos+1) {
				c.val = *v
				if ref != nil {
					side[pos&r.mask] = ref
				}
				c.seq.Store(lap + 1)
				return true
			}
			continue // lost the claim; reload head
		}
		if d < 0 {
			// Capacity says there is room but the slot's previous
			// occupant is still being released; yield to that consumer.
			if spins++; spins > 64 {
				runtime.Gosched()
				spins = 0
			}
			continue
		}
		// d > 0: stale head read (another producer won); reload.
	}
}

// tryPop is the lock-free core of the pops; no waiter wakeup. It copies
// the head cell into *v and returns its companion, clearing both before
// the cell is released so the ring keeps nothing alive that has left it.
func (r *Ring[T]) tryPop(v *T) (any, bool) {
	for spins := 0; ; {
		pos := r.tail.Load()
		c := &r.cells[pos&r.mask]
		d := int64(c.seq.Load()) - int64(pos&^r.mask+1)
		if d == 0 {
			if r.sc {
				r.tail.Store(pos + 1)
			} else if !r.tail.CompareAndSwap(pos, pos+1) {
				continue
			}
			return r.take(c, pos, v), true
		}
		if d < 0 {
			if r.head.Load() == pos {
				return nil, false // truly empty
			}
			// A producer claimed the slot but has not published yet.
			if spins++; spins > 64 {
				runtime.Gosched()
				spins = 0
			}
			continue
		}
		// d > 0: stale tail read (another consumer won); reload.
	}
}

// take empties the claimed cell c at pos into *v, returns its companion
// and releases the cell for the producer's next lap.
func (r *Ring[T]) take(c *cell[T], pos uint64, v *T) any {
	var zero T
	*v = c.val
	c.val = zero
	var ref any
	if side := r.side.Load(); side != nil {
		i := pos & r.mask
		if ref = (*side)[i]; ref != nil {
			(*side)[i] = nil
		}
	}
	c.seq.Store(pos&^r.mask + uint64(len(r.cells)))
	return ref
}

// wakePoppers unparks consumers after a successful push. The waiter
// count is zero in steady state, so this is one atomic load.
func (r *Ring[T]) wakePoppers() {
	if r.popWait.Load() != 0 {
		r.mu.Lock()
		r.notEmpty.Broadcast()
		r.mu.Unlock()
	}
}

// wakePushers unparks producers after a successful pop.
func (r *Ring[T]) wakePushers() {
	if r.pushWait.Load() != 0 {
		r.mu.Lock()
		r.notFull.Broadcast()
		r.mu.Unlock()
	}
}

// arm makes sure a park under ctx is woken by ctx's cancellation: Cond has
// no context support, and a caller that cancels without ever closing the
// ring must not hang. The caller holds r.mu and has seen ctx not yet done;
// a cancellation racing the arm runs the waker as soon as mu is released,
// after the caller's own post-announce ctx check.
func (r *Ring[T]) arm(ctx context.Context) {
	done := ctx.Done()
	if done == nil {
		return
	}
	for i := range r.wakers {
		if r.wakers[i].done == done {
			return
		}
	}
	stop := context.AfterFunc(ctx, func() { r.cancelled(done) })
	r.wakers = append(r.wakers, waker{done: done, stop: stop})
}

// cancelled is the waker body: the context identified by done fired, so
// unpark everyone (each waiter re-checks its own context) and drop the
// spent entry.
func (r *Ring[T]) cancelled(done <-chan struct{}) {
	r.mu.Lock()
	for i := range r.wakers {
		if r.wakers[i].done == done {
			last := len(r.wakers) - 1
			r.wakers[i] = r.wakers[last]
			r.wakers[last] = waker{}
			r.wakers = r.wakers[:last]
			break
		}
	}
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
	r.mu.Unlock()
}

// TryPush appends v if space is available and reports success. It never
// blocks (beyond yielding to an in-flight operation on the same slot)
// and always fails on a closed ring.
func (r *Ring[T]) TryPush(v T) bool { return r.TryPushRef(&v, nil) }

// TryPushRef is TryPush for an element that travels as *v plus ref, its
// pointer-bearing companion (nil for none): *v is copied into the cell,
// ref into the side array.
func (r *Ring[T]) TryPushRef(v *T, ref any) bool {
	if !r.tryPush(v, ref) {
		return false
	}
	r.wakePoppers()
	return true
}

// TryPop removes the head element without blocking. It keeps draining
// after Close and fails only when the ring is empty.
func (r *Ring[T]) TryPop() (T, bool) {
	var v T
	_, ok := r.TryPopRef(&v)
	return v, ok
}

// TryPopRef is TryPop into *v; it returns the element's companion (nil
// when it was pushed without one).
func (r *Ring[T]) TryPopRef(v *T) (ref any, ok bool) {
	if ref, ok = r.tryPop(v); ok {
		r.wakePushers()
	}
	return ref, ok
}

// pushSpins/popSpins bound the yielding retry phase before a blocking
// operation parks on its cond var. Small on purpose: under sustained
// load the fast path succeeds immediately, and when it cannot, parking
// beats burning the (possibly only) core.
const blockSpins = 4

// Push blocks until space is available or ctx is done; it returns false
// when the ring closed or the context was cancelled.
func (r *Ring[T]) Push(ctx context.Context, v T) bool { return r.PushRef(ctx, &v, nil) }

// PushRef is Push for an element that travels as *v plus its companion
// ref, as TryPushRef.
func (r *Ring[T]) PushRef(ctx context.Context, v *T, ref any) bool {
	if r.TryPushRef(v, ref) {
		return true
	}
	for i := 0; i < blockSpins; i++ {
		if r.closed.Load() || ctx.Err() != nil {
			return false
		}
		runtime.Gosched()
		if r.TryPushRef(v, ref) {
			return true
		}
	}
	// Park: wake-ups come from pops, from Close, and from ctx's waker.
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.tryPush(v, ref) {
			if r.popWait.Load() != 0 {
				r.notEmpty.Broadcast()
			}
			return true
		}
		if r.closed.Load() || ctx.Err() != nil {
			return false
		}
		r.arm(ctx)
		r.pushWait.Add(1)
		// Final retry after announcing the wait: a pop that completed
		// between our last attempt and the Add has already loaded a
		// zero pushWait and will not broadcast.
		if r.tryPush(v, ref) {
			r.pushWait.Add(-1)
			if r.popWait.Load() != 0 {
				r.notEmpty.Broadcast()
			}
			return true
		}
		if r.closed.Load() || ctx.Err() != nil {
			r.pushWait.Add(-1)
			return false
		}
		r.notFull.Wait()
		r.pushWait.Add(-1)
	}
}

// Pop blocks until an element is available; ok is false when the ring
// is closed and drained, or the context is done. Like Push, a park is
// covered by ctx's waker, so cancellation alone unblocks it.
func (r *Ring[T]) Pop(ctx context.Context) (T, bool) {
	var v T
	_, ok := r.PopRef(ctx, &v)
	return v, ok
}

// PopRef is Pop into *v; it returns the element's companion, as
// TryPopRef.
func (r *Ring[T]) PopRef(ctx context.Context, v *T) (any, bool) {
	if ref, ok := r.TryPopRef(v); ok {
		return ref, true
	}
	for i := 0; i < blockSpins; i++ {
		if r.closed.Load() || ctx.Err() != nil {
			// Drain-before-fail: Close may have raced a final push.
			return r.TryPopRef(v)
		}
		runtime.Gosched()
		if ref, ok := r.TryPopRef(v); ok {
			return ref, true
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if ref, ok := r.tryPop(v); ok {
			if r.pushWait.Load() != 0 {
				r.notFull.Broadcast()
			}
			return ref, true
		}
		if r.closed.Load() || ctx.Err() != nil {
			return nil, false
		}
		r.arm(ctx)
		r.popWait.Add(1)
		if ref, ok := r.tryPop(v); ok {
			r.popWait.Add(-1)
			if r.pushWait.Load() != 0 {
				r.notFull.Broadcast()
			}
			return ref, true
		}
		if r.closed.Load() || ctx.Err() != nil {
			r.popWait.Add(-1)
			return nil, false
		}
		r.notEmpty.Wait()
		r.popWait.Add(-1)
	}
}
