package transport

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"aces/internal/sdo"
)

// drainServer accepts raw TCP connections and discards everything read,
// so benchmarks measure the sender's data path, not a peer's decode loop.
func drainServer(tb testing.TB) string {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(io.Discard, c)
			}()
		}
	}()
	return l.Addr().String()
}

func benchSDO() sdo.SDO {
	return sdo.SDO{Stream: 1, Seq: 42, Origin: time.Unix(0, 1), Hops: 2, Trace: 7, Payload: make([]byte, 64), Bytes: 64}
}

// wireSDO is the representative cross-partition SDO: the control
// experiments ship empty payloads (the bridge strips non-[]byte payloads
// anyway), so throughput benchmarks use the 36-byte header-only frame.
func wireSDO() sdo.SDO {
	return sdo.SDO{Stream: 1, Seq: 42, Origin: time.Unix(0, 1), Hops: 2, Trace: 7}
}

// TestEncodePathZeroAllocs is the acceptance gate for the direct encode
// path: sending an SDO through a warmed Conn must not allocate.
func TestEncodePathZeroAllocs(t *testing.T) {
	addr := drainServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := benchSDO()
	// Warm the send scratch and bufio writer.
	for i := 0; i < 16; i++ {
		if err := c.SendSDO(s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.SendSDO(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SendSDO allocates %.1f times per SDO, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := c.SendRouted(3, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SendRouted allocates %.1f times per SDO, want 0", allocs)
	}
}

// TestDecodePathZeroAllocs is the receive-side gate: decoding buffered
// payload-free data frames must not allocate either. The frames are
// pre-sent so every Recv is served from the bufio reader, keeping
// syscalls (and their absence of allocations) out of the measurement.
func TestDecodePathZeroAllocs(t *testing.T) {
	client, server := pair(t)
	s := wireSDO()
	const frames = 600
	for i := 0; i < frames; i++ {
		if err := client.SendSDO(s); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the body buffer and let the pre-sent frames land in the read buffer.
	for i := 0; i < 16; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Recv allocates %.1f times per frame, want 0", allocs)
	}
}

// TestBatchDecodeAllocsPerFrame gates the receive side of a payload batch:
// a frame costs two allocations per slab (the slab, one per slabCap
// payload bytes, and its slice-header array, which boxes every payload of
// the slab in place), never one per payload. A header-only batch costs
// nothing.
func TestBatchDecodeAllocsPerFrame(t *testing.T) {
	for _, plen := range []int{512, 0} {
		const n = 256
		s := wireSDO()
		if plen > 0 {
			s.Payload, s.Bytes = make([]byte, plen), plen
		}
		mbody, err := encodeRouted(nil, 3, s)
		if err != nil {
			t.Fatal(err)
		}
		members := make([]outFrame, n)
		for i := range members {
			members[i] = outFrame{kind: KindRouted, buf: &mbody}
		}
		body := batchBody(members)
		var c Conn
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.decodeBatch(body); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ { // staged members are served without touching the reader
				if _, err := c.Recv(); err != nil {
					t.Fatal(err)
				}
			}
		})
		want := 0
		if plen > 0 {
			want = 2 * ((n*plen + slabCap - 1) / slabCap)
		}
		if allocs > float64(want) {
			t.Errorf("a batch of %d members with %d-byte payloads costs %.0f allocations, want at most %d", n, plen, allocs, want)
		}
	}
}

// TestGatheredWritePathZeroAllocs gates the writev emission path: a
// batch big enough to cross both gathered-write thresholds (total ≥
// vecMinBytes, mean member ≥ vecMinSeg) must leave through
// sendBatchVec without allocating once the header and iovec scratch
// are warm. Real TCP matters here — net.Pipe has no writev fast path,
// and poll.FD's cached iovec array is what makes repeats allocation-
// free.
func TestGatheredWritePathZeroAllocs(t *testing.T) {
	addr := drainServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := make([]byte, 512)
	members := make([]outFrame, 32)
	for i := range members {
		members[i] = outFrame{kind: KindData, buf: &body}
	}
	total := 4 + len(members)*(5+len(body))
	if total < vecMinBytes || total < len(members)*vecMinSeg {
		t.Fatalf("batch of %d bytes does not reach the gathered-write thresholds", total)
	}
	// Warm the header scratch, iovec scratch and poll.FD's iovec cache.
	for i := 0; i < 8; i++ {
		if err := c.sendBatch(members, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.sendBatch(members, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("gathered batch write allocates %.1f times per batch, want 0", allocs)
	}
}

func BenchmarkEncodeSDO(b *testing.B) {
	s := benchSDO()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := encodeSDO(buf[:0], s)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkPerFrameFlush is the historic uplink hot path: one frame, one
// bufio flush (one syscall) per SDO through a direct Conn. Senders run in
// parallel, like PE emitters sharing an uplink, but serialize on the
// connection's write lock — the per-frame flush gates aggregate
// throughput no matter how many emit.
func BenchmarkPerFrameFlush(b *testing.B) {
	addr := drainServer(b)
	c, err := Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := wireSDO()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := c.SendSDO(s); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchResilient pushes b.N SDOs through a ResilientConn from parallel
// senders and waits for the writer to drain them, so the measured rate is
// end-to-end wire throughput, not the enqueue rate.
func benchResilient(b *testing.B, opts ResilientOptions) {
	addr := drainServer(b)
	rc := NewResilientConn(func() (*Conn, error) { return Dial(addr, time.Second) }, opts)
	defer rc.Close()
	s := wireSDO()
	// Wait for the first connection so setup noise stays out of the timing.
	if err := rc.SendSDO(s); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rc.Stats().FramesSent < 1 {
		if time.Now().After(deadline) {
			b.Fatal("link never connected")
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for rc.SendSDO(s) != nil {
				runtime.Gosched() // outbox full: the writer is the bottleneck
			}
		}
	})
	for {
		if rc.Stats().FramesSent >= int64(b.N)+1 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
}

func BenchmarkResilientNoBatch(b *testing.B) {
	benchResilient(b, ResilientOptions{QueueSize: 4096})
}

func BenchmarkResilientBatch8(b *testing.B) {
	benchResilient(b, ResilientOptions{QueueSize: 4096, BatchMax: 8})
}

func BenchmarkResilientBatch32(b *testing.B) {
	benchResilient(b, ResilientOptions{QueueSize: 4096, BatchMax: 32})
}
