package transport

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pointerWords counts the words of a value of type t that the collector
// scans.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Slice, reflect.String:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestOutFrameLayout pins the outbox entry: at most 24 bytes with one
// pointer word, so a ring cell is 32 bytes of which the collector scans
// one word.
func TestOutFrameLayout(t *testing.T) {
	typ := reflect.TypeOf(outFrame{})
	if typ.Size() > 24 {
		t.Errorf("outFrame is %d bytes, want at most 24", typ.Size())
	}
	if n := pointerWords(typ); n != 1 {
		t.Errorf("outFrame holds %d pointer words, want 1", n)
	}
}

// TestWireAllocsAcrossCollections sends header-only frames through a
// ResilientConn to a Conn that reads them, forcing two collections every
// 64 frames. The link's encode buffers and the reader's body buffer
// survive collections, so the frames allocate (next to) nothing; buffers
// from a pool the collector empties would cost fresh ones every round.
// What the collections allocate themselves (the runtime's cleanups, such
// as the unique package's after every cycle) is measured by the same
// rounds without frames and taken off.
func TestWireAllocsAcrossCollections(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	rc := NewResilientConn(func() (*Conn, error) { return Dial(l.Addr(), time.Second) }, ResilientOptions{})
	defer rc.Close()
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer server.Close()
	s := wireSDO()
	// rounds runs n rounds of two collections, each followed by perRound
	// frames, and returns the allocations they made.
	rounds := func(n, perRound int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < n; r++ {
			runtime.GC()
			runtime.GC()
			for i := 0; i < perRound; i++ {
				if err := rc.SendRouted(3, s); err != nil {
					t.Fatal(err)
				}
				if m, err := server.Recv(); err != nil || m.Kind != KindRouted {
					t.Fatalf("frame %d arrived as %v, %v", i, m.Kind, err)
				}
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	rounds(2, 64) // connect, hello, warm the buffers and the writer
	const n, perRound = 32, 64
	withFrames := rounds(n, perRound)
	collections := rounds(n, 0)
	var frameAllocs float64
	if withFrames > collections {
		frameAllocs = float64(withFrames - collections)
	}
	if per := frameAllocs / (n * perRound); per > 0.02 {
		t.Errorf("%.3f allocations per frame with two collections every %d frames (%d with frames, %d for the collections alone), want at most 0.02",
			per, perRound, withFrames, collections)
	}
}

// TestFeedbackOnlyLinkHoldsNoDataRing: a link that has only carried
// control frames never allocates the data outbox; the first data frame
// does.
func TestFeedbackOnlyLinkHoldsNoDataRing(t *testing.T) {
	srv := newCountingServer(t)
	opts := ResilientOptions{QueueSize: 4096}
	rc := NewResilientConn(func() (*Conn, error) { return Dial(srv.addr(), time.Second) }, opts)
	defer rc.Close()
	const frames = 1000
	for i := 0; i < frames; i += 32 { // 32 at a time: the control lane holds 64
		for k := i; k < i+32 && k < frames; k++ {
			if err := rc.SendFeedback(Feedback{PE: int32(k), RMax: 1}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 5*time.Second, func() bool { return rc.Stats().FramesSent >= int64(min(i+32, frames)) }, "feedback frames not written")
	}
	st := rc.Stats()
	if st.FramesSent != frames || st.FramesDropped != 0 {
		t.Fatalf("sent %d, dropped %d of %d feedback frames", st.FramesSent, st.FramesDropped, frames)
	}
	if rc.outq.Load() != nil {
		t.Errorf("a link that sent %d feedback frames holds a data ring", frames)
	}
	if st.QueueLen != 0 || st.QueueCap != opts.QueueSize {
		t.Errorf("queue %d/%d without a data ring, want 0/%d", st.QueueLen, st.QueueCap, opts.QueueSize)
	}
	if err := rc.SendSDO(wireSDO()); err != nil {
		t.Fatal(err)
	}
	if rc.outq.Load() == nil {
		t.Error("the first data frame did not allocate the data ring")
	}
}

// TestFirstDataFrameRacesClose races the sends that allocate the data
// ring against Close. Every send must be accounted exactly once: written,
// counted as dropped by the link, or refused with ErrLinkClosed.
func TestFirstDataFrameRacesClose(t *testing.T) {
	srv := newCountingServer(t)
	dial := func() (*Conn, error) { return Dial(srv.addr(), time.Second) }
	// The interleaving a race rarely produces: a send that found the link
	// open reaches the ring allocation only after Close has drained. It
	// must be refused, not handed a ring nobody will ever drain.
	rc := NewResilientConn(dial, ResilientOptions{})
	rc.Close()
	if rc.dataRing() != nil {
		t.Fatal("a closed link allocated a data ring")
	}
	const trials, senders, sends = 20, 4, 16
	for trial := 0; trial < trials; trial++ {
		rc := NewResilientConn(dial, ResilientOptions{QueueSize: 32})
		start := make(chan struct{})
		var wg sync.WaitGroup
		var mu sync.Mutex
		refused := 0
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n := 0
				for i := 0; i < sends; i++ {
					err := rc.SendRouted(1, wireSDO())
					switch {
					case errors.Is(err, ErrLinkClosed):
						n++
					case err != nil && !errors.Is(err, ErrOutboxFull):
						t.Error(err)
					}
				}
				mu.Lock()
				refused += n
				mu.Unlock()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rc.Close()
		}()
		close(start)
		wg.Wait()
		st := rc.Stats()
		if attempted := int64(senders * sends); st.FramesSent+st.FramesDropped+int64(refused) != attempted {
			t.Fatalf("trial %d: sent %d + dropped %d + refused %d != attempted %d",
				trial, st.FramesSent, st.FramesDropped, refused, attempted)
		}
	}
}
