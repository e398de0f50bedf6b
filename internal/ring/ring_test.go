package ring

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stressIters is the repeat count for the concurrency stress tests: the
// interleavings that corrupt a lock-free queue are rare, so each test
// re-runs its scenario many times (the CI runs this package under -race).
const stressIters = 100

func TestExactCapacityNonPowerOfTwo(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 7, 8, 100} {
		r := New[int](capacity, MPMC)
		if r.Cap() != capacity {
			t.Fatalf("Cap() = %d, want %d", r.Cap(), capacity)
		}
		for i := 0; i < capacity; i++ {
			if !r.TryPush(i) {
				t.Fatalf("cap %d: push %d refused below capacity", capacity, i)
			}
		}
		if r.TryPush(capacity) {
			t.Fatalf("cap %d: push succeeded at capacity (backing array is %d)", capacity, len(r.cells))
		}
		if got := r.Len(); got != capacity {
			t.Fatalf("cap %d: Len = %d, want %d", capacity, got, capacity)
		}
		for i := 0; i < capacity; i++ {
			v, ok := r.TryPop()
			if !ok || v != i {
				t.Fatalf("cap %d: pop %d = (%d, %v)", capacity, i, v, ok)
			}
		}
		if _, ok := r.TryPop(); ok {
			t.Fatalf("cap %d: pop succeeded on empty ring", capacity)
		}
	}
}

// A small ring cycled far past its size must preserve FIFO order across
// every wraparound of the position counters' low bits.
func TestWraparoundFIFO(t *testing.T) {
	for _, mode := range []Mode{MPMC, SPSC, SingleConsumer} {
		r := New[uint64](4, mode)
		for i := uint64(0); i < 100000; i++ {
			if !r.TryPush(i) {
				t.Fatalf("mode %d: push %d refused on non-full ring", mode, i)
			}
			v, ok := r.TryPop()
			if !ok || v != i {
				t.Fatalf("mode %d: pop %d = (%d, %v)", mode, i, v, ok)
			}
		}
	}
}

// Pipelined wraparound: keep the ring near-full while cycling it, so the
// head/tail laps overlap instead of alternating.
func TestWraparoundPipelined(t *testing.T) {
	r := New[int](5, MPMC) // backing 8: laps are misaligned with capacity
	next := 0
	for i := 0; i < 50000; i++ {
		for r.TryPush(i) {
			i++
		}
		i--
		v, ok := r.TryPop()
		if !ok || v != next {
			t.Fatalf("pop = (%d, %v), want %d", v, ok, next)
		}
		next++
	}
}

func TestStressSPSC(t *testing.T) {
	const n = 2000
	for iter := 0; iter < stressIters; iter++ {
		r := New[int](8, SPSC)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				for !r.TryPush(i) {
					runtime.Gosched()
				}
			}
			done <- nil
		}()
		for i := 0; i < n; i++ {
			for {
				v, ok := r.TryPop()
				if !ok {
					runtime.Gosched()
					continue
				}
				if v != i {
					t.Fatalf("iter %d: pop = %d, want %d (FIFO broken)", iter, v, i)
				}
				break
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Multi-producer, single consumer (the PE-input-buffer shape): global
// ordering is not defined, but per-producer FIFO must hold and nothing
// may be lost or duplicated.
func TestStressMPSC(t *testing.T) {
	const producers, perProducer = 4, 500
	for iter := 0; iter < stressIters; iter++ {
		r := New[[2]int](16, SingleConsumer)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					for !r.TryPush([2]int{p, i}) {
						runtime.Gosched()
					}
				}
			}(p)
		}
		var lastSeen [producers]int
		for p := range lastSeen {
			lastSeen[p] = -1
		}
		got := 0
		for got < producers*perProducer {
			v, ok := r.TryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			p, i := v[0], v[1]
			if i != lastSeen[p]+1 {
				t.Fatalf("iter %d: producer %d emitted %d after %d", iter, p, i, lastSeen[p])
			}
			lastSeen[p] = i
			got++
		}
		wg.Wait()
		if _, ok := r.TryPop(); ok {
			t.Fatalf("iter %d: ring non-empty after full drain", iter)
		}
	}
}

func TestStressMPMC(t *testing.T) {
	const producers, consumers, perProducer = 3, 3, 400
	for iter := 0; iter < stressIters; iter++ {
		r := New[int](8, MPMC)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					for !r.TryPush(p*perProducer + i) {
						runtime.Gosched()
					}
				}
			}(p)
		}
		var mu sync.Mutex
		seen := make(map[int]bool, producers*perProducer)
		var cwg sync.WaitGroup
		var remaining = make(chan struct{}, producers*perProducer)
		for i := 0; i < producers*perProducer; i++ {
			remaining <- struct{}{}
		}
		for c := 0; c < consumers; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for {
					select {
					case <-remaining:
					default:
						return
					}
					var v int
					var ok bool
					for !ok {
						if v, ok = r.TryPop(); !ok {
							runtime.Gosched()
						}
					}
					mu.Lock()
					if seen[v] {
						mu.Unlock()
						t.Errorf("iter %d: value %d delivered twice", iter, v)
						return
					}
					seen[v] = true
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		cwg.Wait()
		if len(seen) != producers*perProducer {
			t.Fatalf("iter %d: delivered %d of %d values", iter, len(seen), producers*perProducer)
		}
	}
}

// Concurrent Close against pushers and a popper: every push that
// reported success must be delivered (post-Close drain), and nothing
// may be delivered twice.
func TestStressCloseVsPushPop(t *testing.T) {
	for iter := 0; iter < stressIters; iter++ {
		r := New[int](8, SingleConsumer)
		var accepted sync.Map
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				// The producer is the low bit: a producer on a loaded machine
				// makes more than 2^20 attempts before Close lands, and
				// p<<20|i then repeated the other producer's values.
				for i := 0; ; i++ {
					if r.Closed() {
						return
					}
					if r.TryPush(i<<1 | p) {
						accepted.Store(i<<1|p, true)
					}
				}
			}(p)
		}
		popped := make(map[int]bool)
		var pwg sync.WaitGroup
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			empties := 0
			for {
				v, ok := r.TryPop()
				if ok {
					if popped[v] {
						t.Errorf("iter %d: value %d popped twice", iter, v)
						return
					}
					popped[v] = true
					empties = 0
					continue
				}
				// Producers stop pushing once they observe Close, so a
				// post-Close empty pop means the drain is complete.
				if r.Closed() {
					if empties++; empties > 3 {
						return
					}
				}
			}
		}()
		time.Sleep(100 * time.Microsecond)
		r.Close()
		r.Close() // idempotent under race
		wg.Wait()
		pwg.Wait()
		// Drain anything pushed between a producer's last Closed() check
		// and its exit — those pushes reported success too.
		for {
			v, ok := r.TryPop()
			if !ok {
				break
			}
			popped[v] = true
		}
		accepted.Range(func(k, _ any) bool {
			if !popped[k.(int)] {
				t.Fatalf("iter %d: accepted value %d lost at Close", iter, k)
			}
			return true
		})
	}
}

func TestPostCloseContract(t *testing.T) {
	r := New[int](4, MPMC)
	for i := 0; i < 3; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	r.Close()
	r.Close() // idempotent
	if r.TryPush(99) {
		t.Error("TryPush succeeded after Close despite free space")
	}
	if r.Push(context.Background(), 99) {
		t.Error("Push succeeded after Close despite free space")
	}
	for i := 0; i < 3; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("post-Close drain pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Error("TryPop on drained closed ring succeeded")
	}
	if _, ok := r.Pop(context.Background()); ok {
		t.Error("Pop on drained closed ring succeeded")
	}
}

// A blocked Pop must return promptly when the context is cancelled even
// if nothing ever closes the ring or pushes into it — the exact hang
// ISSUE 10 fixes (only Push armed the AfterFunc waker before).
func TestBlockedPopReturnsOnCancelWithoutClose(t *testing.T) {
	r := New[int](1, MPMC)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := r.Pop(ctx)
		done <- ok
	}()
	select {
	case ok := <-done:
		t.Fatalf("Pop returned %v before cancel on an empty ring", ok)
	case <-time.After(20 * time.Millisecond):
	}
	cancel() // no Close, no Push: only the waker can unblock the Pop
	select {
	case ok := <-done:
		if ok {
			t.Error("cancelled Pop reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Pop hung after cancel; AfterFunc waker missing")
	}
	// The ring must remain usable after an unrelated cancellation.
	if !r.TryPush(7) {
		t.Fatal("TryPush failed after cancelled Pop")
	}
	if v, ok := r.Pop(context.Background()); !ok || v != 7 {
		t.Fatalf("Pop after recovery = (%d, %v), want (7, true)", v, ok)
	}
}

func TestBlockedPushReturnsOnCancelWithoutClose(t *testing.T) {
	r := New[int](1, MPMC)
	if !r.TryPush(1) {
		t.Fatal("seed push refused")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- r.Push(ctx, 2) }()
	select {
	case ok := <-done:
		t.Fatalf("Push returned %v before cancel on a full ring", ok)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Error("cancelled Push reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Push hung after cancel; AfterFunc waker missing")
	}
}

func TestBlockedOpsReturnOnClose(t *testing.T) {
	r := New[int](1, MPMC)
	r.TryPush(1)
	pushDone := make(chan bool, 1)
	popR := New[int](1, MPMC)
	popDone := make(chan bool, 1)
	go func() { pushDone <- r.Push(context.Background(), 2) }()
	go func() {
		_, ok := popR.Pop(context.Background())
		popDone <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	r.Close()
	popR.Close()
	for name, ch := range map[string]chan bool{"Push": pushDone, "Pop": popDone} {
		select {
		case ok := <-ch:
			if ok {
				t.Errorf("%s on closed ring reported success", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("blocked %s hung after Close", name)
		}
	}
}

// A parked Pop must be woken by a TryPush (the waiter-count handshake),
// not only by a blocking Push.
func TestParkedPopWokenByTryPush(t *testing.T) {
	for iter := 0; iter < stressIters; iter++ {
		r := New[int](4, MPMC)
		got := make(chan int, 1)
		go func() {
			v, _ := r.Pop(context.Background())
			got <- v
		}()
		// No sleep: exercise every phase of Pop's spin-then-park window.
		if iter%2 == 1 {
			time.Sleep(time.Millisecond)
		}
		if !r.TryPush(42) {
			t.Fatal("push refused")
		}
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("iter %d: got %d", iter, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iter %d: parked Pop never woke after TryPush", iter)
		}
	}
}

func TestParkedPushWokenByTryPop(t *testing.T) {
	for iter := 0; iter < stressIters; iter++ {
		r := New[int](1, MPMC)
		r.TryPush(1)
		done := make(chan bool, 1)
		go func() { done <- r.Push(context.Background(), 2) }()
		if iter%2 == 1 {
			time.Sleep(time.Millisecond)
		}
		for {
			if _, ok := r.TryPop(); ok {
				break
			}
			runtime.Gosched()
		}
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("iter %d: woken Push failed", iter)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iter %d: parked Push never woke after TryPop", iter)
		}
		r.TryPop()
	}
}

// A consumer that parks per burst must not allocate to do so: the
// cancellation waker is armed once per (ring, context), not per park.
// One cycle is: consumer parked in Pop under a cancellable context →
// TryPush wakes it → it pops and parks again.
func TestParkUnparkCycleZeroAllocs(t *testing.T) {
	r := New[int](4, SingleConsumer)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan int)
	go func() {
		for {
			v, ok := r.Pop(ctx)
			if !ok {
				close(got)
				return
			}
			got <- v
		}
	}()
	cycle := func() {
		for r.popWait.Load() == 0 {
			runtime.Gosched()
		}
		if !r.TryPush(1) {
			t.Error("push refused")
		}
		<-got
	}
	cycle() // the first park arms the waker: the one allocation there is
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("park/unpark cycle allocates %.1f times, want 0", allocs)
	}
	if n := armedWakers(r); n != 1 {
		t.Errorf("%d wakers armed after 200 parks under one context, want 1", n)
	}
	cancel()
	if _, ok := <-got; ok {
		t.Error("consumer delivered after cancel")
	}
}

// Callers parked on one ring under different contexts each keep the
// cancel-without-Close contract: cancelling one returns that caller only,
// its spent waker entry is dropped, and Close disarms the rest.
func TestParkedCallersWithDifferentContexts(t *testing.T) {
	r := New[int](1, MPMC)
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	doneA, doneB := make(chan bool, 1), make(chan bool, 1)
	go func() { _, ok := r.Pop(ctxA); doneA <- ok }()
	go func() { _, ok := r.Pop(ctxB); doneB <- ok }()
	for r.popWait.Load() != 2 {
		runtime.Gosched()
	}
	cancelA()
	select {
	case ok := <-doneA:
		if ok {
			t.Error("cancelled Pop reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop under the cancelled context hung")
	}
	select {
	case ok := <-doneB:
		t.Fatalf("Pop under the live context returned %v", ok)
	case <-time.After(20 * time.Millisecond):
	}
	if n := armedWakers(r); n != 1 {
		t.Errorf("%d wakers armed after one of two contexts fired, want 1", n)
	}
	r.Close()
	if ok := <-doneB; ok {
		t.Error("Pop on closed empty ring reported success")
	}
	if n := armedWakers(r); n != 0 {
		t.Errorf("%d wakers still armed after Close, want 0", n)
	}
}

func armedWakers(r *Ring[int]) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.wakers)
}

// The side array exists only once a non-nil companion has been pushed:
// a ring filled through TryPush and Push, or through TryPushRef with nil,
// never allocates it. A pop hands the companion back and clears its entry.
func TestSideArrayLazyAndCleared(t *testing.T) {
	r := New[int](4, MPMC)
	r.TryPush(1)
	r.Push(context.Background(), 2)
	v := 3
	r.TryPushRef(&v, nil)
	if r.side.Load() != nil {
		t.Fatal("side array allocated without a companion")
	}
	for i := 1; i <= 3; i++ {
		if ref, ok := r.TryPopRef(&v); !ok || v != i || ref != nil {
			t.Fatalf("pop = (%d, %v, %v), want (%d, nil, true)", v, ref, ok, i)
		}
	}
	v = 4
	r.TryPushRef(&v, "four")
	side := r.side.Load()
	if side == nil || len(*side) != len(r.cells) {
		t.Fatal("first companion did not allocate a side array as long as the cells")
	}
	if ref, ok := r.TryPopRef(&v); !ok || v != 4 || ref != "four" {
		t.Fatalf("pop = (%d, %v, %v), want (4, four, true)", v, ref, ok)
	}
	for i, e := range *side {
		if e != nil {
			t.Errorf("side[%d] = %v after its pop, want nil", i, e)
		}
	}
}

// The first companion may arrive through Push's park path, which calls
// the push core under the ring's lock: the side array's allocation must
// not need that lock.
func TestFirstRefThroughParkedPush(t *testing.T) {
	r := New[int](1, MPMC)
	r.TryPush(0)
	done := make(chan bool, 1)
	go func() {
		v := 1
		done <- r.PushRef(context.Background(), &v, "first")
	}()
	for r.pushWait.Load() == 0 {
		runtime.Gosched()
	}
	if v, ok := r.TryPop(); !ok || v != 0 {
		t.Fatalf("pop = (%d, %v), want (0, true)", v, ok)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("parked PushRef failed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked PushRef carrying the first companion never completed")
	}
	var v int
	if ref, ok := r.TryPopRef(&v); !ok || v != 1 || ref != "first" {
		t.Fatalf("pop = (%d, %v, %v), want (1, first, true)", v, ref, ok)
	}
}
