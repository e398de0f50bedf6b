package spc

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aces/internal/sdo"
)

// A buffer's cells must stay invisible to the collector: the slot holds
// no pointer-bearing kind anywhere in its layout, and with the ring's
// 8-byte sequence word it fits one 64-byte cache line.
func TestBufferSlotHasNoPointers(t *testing.T) {
	typ := reflect.TypeOf(slot{})
	if typ.Size() > 56 {
		t.Errorf("slot is %d bytes, want at most 56 (one 64-byte cell with the sequence word)", typ.Size())
	}
	var walk func(t reflect.Type, path string) []string
	walk = func(typ reflect.Type, path string) []string {
		switch typ.Kind() {
		case reflect.Struct:
			var bad []string
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				bad = append(bad, walk(f.Type, path+"."+f.Name)...)
			}
			return bad
		case reflect.Array:
			return walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return []string{path + " (" + typ.Kind().String() + ")"}
		}
		return nil
	}
	for _, p := range walk(typ, "slot") {
		t.Errorf("slot holds a pointer-bearing field: %s", p)
	}
}

// hasMono reports whether t carries a monotonic clock reading: Round(0)
// strips it and nothing else.
func hasMono(t time.Time) bool { return t.Round(0) != t }

// Pack then unpack keeps every field exactly (Hops within int32, Bytes
// within [-2^51, 2^51)) and keeps Origin as the same instant, with a
// monotonic reading if and only if it had one and the same wall reading.
func TestBufferSlotRoundTrip(t *testing.T) {
	now := time.Now()
	origins := []struct {
		name string
		t    time.Time
	}{
		{"now", now},
		{"now minus an hour", now.Add(-time.Hour)},
		{"decoded from the wire", time.Unix(0, 1_700_000_000_123_456_789)},
		{"zero", time.Time{}},
		{"utc", time.Date(2024, 2, 29, 23, 59, 59, 999_999_999, time.UTC)},
		{"1970", time.Date(1970, 1, 1, 0, 0, 0, 1, time.UTC)},
		{"before 1970", time.Unix(-1, 0)},
		{"wire minimum", time.Unix(0, math.MinInt64)},
		{"wire maximum", time.Unix(0, math.MaxInt64)},
	}
	fields := []sdo.SDO{
		{Stream: 3, Seq: 1, Bytes: 1, Hops: 1},
		{Stream: math.MinInt32, Seq: math.MaxUint64, Bytes: 1<<51 - 1, Hops: math.MaxInt32,
			Trace: math.MaxUint64, TraceEnq: math.MaxFloat64, Key: math.MaxUint64},
		{Stream: -1, Seq: 0, Bytes: -1 << 51, Hops: math.MinInt32, TraceEnq: -1.5, Key: 1},
	}
	payload := []byte("payload")
	for _, o := range origins {
		for i, f := range fields {
			want := f
			want.Origin = o.t
			if i == 1 {
				want.Payload = payload
			}
			var c slot
			c.pack(&want)
			var got sdo.SDO
			c.unpack(&got, want.Payload)

			if !got.Origin.Equal(want.Origin) {
				t.Errorf("%s/%d: origin %v, want Equal to %v", o.name, i, got.Origin, want.Origin)
			}
			if got.Origin.IsZero() != want.Origin.IsZero() {
				t.Errorf("%s/%d: IsZero %v, want %v", o.name, i, got.Origin.IsZero(), want.Origin.IsZero())
			}
			if hasMono(got.Origin) != hasMono(want.Origin) {
				t.Errorf("%s/%d: monotonic reading %v, want %v", o.name, i, hasMono(got.Origin), hasMono(want.Origin))
			}
			if d, w := now.Sub(got.Origin), now.Sub(want.Origin); d != w {
				t.Errorf("%s/%d: now.Sub(origin) = %v, want %v", o.name, i, d, w)
			}
			if !want.Origin.IsZero() && got.Origin.UnixNano() != want.Origin.UnixNano() {
				t.Errorf("%s/%d: UnixNano %d, want %d", o.name, i, got.Origin.UnixNano(), want.Origin.UnixNano())
			}
			got.Origin, want.Origin = time.Time{}, time.Time{}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%d: round trip\n got %+v\nwant %+v", o.name, i, got, want)
			}
		}
	}
	// A monotonic origin whose two readings are as far apart as the
	// base's (gap 0, which a wall-only origin also shows) keeps its
	// monotonic reading.
	base := newClockAnchors(now)
	if mono, i, ok := base.encode(now); !ok || base.decode(mono, i) != now {
		t.Errorf("the base instant itself encoded as (%d, %d, %v)", mono, i, ok)
	}
	// Fresh readings differ in the gap between their two clocks; each
	// must still come back with both readings exact.
	for i := 0; i < 64; i++ {
		want := sdo.SDO{Origin: time.Now()}
		var c slot
		c.pack(&want)
		var got sdo.SDO
		c.unpack(&got, nil)
		if !got.Origin.Equal(want.Origin) || got.Origin.UnixNano() != want.Origin.UnixNano() {
			t.Fatalf("time.Now() %v came back as %v (wall %d ns apart)", want.Origin, got.Origin,
				got.Origin.UnixNano()-want.Origin.UnixNano())
		}
	}
}

// Origins whose two clock readings are apart by a gap no anchor holds,
// because its entry is taken by another gap, fall back to the base
// instant: the wall reading may move, but Equal, Sub and the monotonic
// reading hold.
func TestBufferOriginAnchorFallback(t *testing.T) {
	a := newClockAnchors(time.Now())
	for i := 1; i < len(a.at); i++ {
		a.at[i].Store(&clockAnchor{gap: math.MinInt64})
	}
	now := time.Now()
	for _, o := range []time.Time{now, now.Add(-time.Hour), now.Add(time.Hour)} {
		mono, i, ok := a.encode(o)
		if !ok {
			t.Fatalf("origin %v encoded as without a monotonic reading", o)
		}
		got := a.decode(mono, i)
		if i != 0 && a.at[i].Load().gap == math.MinInt64 {
			t.Fatalf("origin %v encoded against a taken entry %d", o, i)
		}
		if !got.Equal(o) || !hasMono(got) || now.Sub(got) != now.Sub(o) {
			t.Errorf("origin %v rebuilt as %v: Equal %v, monotonic %v, Sub %v want %v",
				o, got, got.Equal(o), hasMono(got), now.Sub(got), now.Sub(o))
		}
	}
}

// What a buffer hands back is what was pushed, through every push and
// pop path.
func TestBufferRoundTripsThroughEveryPath(t *testing.T) {
	b := NewBuffer(4)
	want := sdo.SDO{Stream: 2, Seq: 9, Origin: time.Now(), Bytes: 512, Hops: 3, Trace: 4, TraceEnq: 0.25, Key: 6, Payload: []byte{1, 2}}
	ctx := context.Background()
	b.TryPush(want)
	b.Push(ctx, want)
	for i, pop := range []func() (sdo.SDO, bool){b.TryPop, func() (sdo.SDO, bool) { return b.Pop(ctx) }} {
		got, ok := pop()
		if !ok || !got.Origin.Equal(want.Origin) || !hasMono(got.Origin) {
			t.Fatalf("pop %d: ok=%v origin %v, want %v with its monotonic reading", i, ok, got.Origin, want.Origin)
		}
		got.Origin = want.Origin
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pop %d: got %+v, want %+v", i, got, want)
		}
	}
}

// blob is a payload big enough to get its own heap object, so a finalizer
// on it runs once it is unreachable.
type blob struct{ b [512]byte }

// A payload stays alive while it is buffered, whatever the collector does
// in the meantime, and the buffer does not keep it alive once popped: the
// pop clears its side-array entry.
func TestBufferPayloadLifetime(t *testing.T) {
	b := NewBuffer(8)
	var collected atomic.Bool
	func() {
		p := &blob{}
		p.b[0] = 42
		runtime.SetFinalizer(p, func(*blob) { collected.Store(true) })
		if !b.TryPush(sdo.SDO{Seq: 1, Payload: p}) {
			t.Fatal("push refused")
		}
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if collected.Load() {
		t.Fatal("a buffered payload was collected")
	}
	func() {
		s, ok := b.TryPop()
		if p, _ := s.Payload.(*blob); !ok || p == nil || p.b[0] != 42 {
			t.Fatalf("pop = (%+v, %v), want the buffered payload", s, ok)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !collected.Load() {
		if time.Now().After(deadline) {
			t.Fatal("a popped payload is still reachable: the buffer keeps it alive")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(b)
}

// Eight producers race header-only and payload SDOs into fresh MPMC
// buffers, so the first payload's side-array allocation races each time
// (and so do the origins' anchor installs); every popped SDO must carry
// its own payload (or none, as pushed) and its monotonic origin.
func TestBufferPayloadStress(t *testing.T) {
	const producers, per, rounds = 8, 200, 20
	for round := 0; round < rounds; round++ {
		b := NewBuffer(producers * per / 4)
		ctx, cancel := context.WithCancel(context.Background())
		var start, prod sync.WaitGroup
		start.Add(1)
		for p := 0; p < producers; p++ {
			prod.Add(1)
			go func(p int) {
				defer prod.Done()
				start.Wait()
				for i := 0; i < per; i++ {
					s := sdo.SDO{Key: uint64(p), Seq: uint64(i), Origin: time.Now()}
					if (i+p)%2 == 0 {
						s.Payload = [2]int{p, i}
					}
					if !b.Push(ctx, s) {
						t.Errorf("push %d/%d refused", p, i)
						return
					}
				}
			}(p)
		}
		var popped atomic.Int64
		var cons sync.WaitGroup
		for c := 0; c < 2; c++ {
			cons.Add(1)
			go func() {
				defer cons.Done()
				for {
					s, ok := b.Pop(ctx)
					if !ok {
						return
					}
					popped.Add(1)
					p, i := int(s.Key), int(s.Seq)
					if !hasMono(s.Origin) {
						t.Errorf("SDO %d/%d popped without its monotonic origin: %v", p, i, s.Origin)
					}
					if (i+p)%2 != 0 {
						if s.Payload != nil {
							t.Errorf("SDO %d/%d pushed without a payload popped with %v", p, i, s.Payload)
						}
					} else if got, _ := s.Payload.([2]int); got != [2]int{p, i} {
						t.Errorf("SDO %d/%d popped with payload %v", p, i, s.Payload)
					}
				}
			}()
		}
		start.Done()
		prod.Wait()
		b.Close()
		cons.Wait()
		cancel()
		if n := popped.Load(); n != producers*per {
			t.Fatalf("round %d: popped %d SDOs, want %d", round, n, producers*per)
		}
	}
}

// A Lock-Step Push whose payload is the buffer's first parks on a full
// buffer (allocating the side array on its park path, under the ring's
// lock) and completes once a pop frees room.
func TestBufferFirstPayloadThroughParkedPush(t *testing.T) {
	b := NewBuffer(1)
	if !b.TryPush(sdo.SDO{Seq: 1}) {
		t.Fatal("seed push refused")
	}
	done := make(chan bool, 1)
	go func() { done <- b.Push(context.Background(), sdo.SDO{Seq: 2, Payload: []byte("first")}) }()
	select {
	case ok := <-done:
		t.Fatalf("Push returned %v on a full buffer", ok)
	case <-time.After(20 * time.Millisecond):
	}
	if s, ok := b.TryPop(); !ok || s.Seq != 1 || s.Payload != nil {
		t.Fatalf("pop = (%+v, %v), want the header-only seed", s, ok)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("parked Push failed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked Push carrying the first payload never completed")
	}
	if s, ok := b.TryPop(); !ok || s.Seq != 2 || string(s.Payload.([]byte)) != "first" {
		t.Fatalf("pop = (%+v, %v), want the parked payload SDO", s, ok)
	}
}

// A push+pop allocates nothing: for a header-only SDO, and for a payload
// SDO once the side array exists. Header-only traffic never allocates
// the array; the first payload does.
func TestBufferPairZeroAllocs(t *testing.T) {
	b := NewBuffer(1024)
	ctx := context.Background()
	s := sdo.SDO{Stream: 1, Origin: time.Now(), Bytes: 1}
	pair := func() {
		b.TryPush(s)
		b.Pop(ctx)
	}
	if n := testing.AllocsPerRun(1000, pair); n != 0 {
		t.Errorf("header-only push+pop allocates %.2f times, want 0", n)
	}
	s.Payload = make([]byte, 512)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pair()
	runtime.ReadMemStats(&after)
	if after.Mallocs == before.Mallocs {
		t.Error("the first payload allocated nothing: the side array was there before it")
	}
	if n := testing.AllocsPerRun(1000, pair); n != 0 {
		t.Errorf("payload push+pop allocates %.2f times, want 0", n)
	}
}
