package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aces/internal/sdo"
)

// member encodes one batch member the way the resilient writer would.
func member(t *testing.T, k Kind, to sdo.PEID, s sdo.SDO) outFrame {
	t.Helper()
	var body []byte
	var err error
	switch k {
	case KindRouted:
		body, err = encodeRouted(nil, to, s)
	default:
		body, err = encodeSDO(nil, s)
	}
	if err != nil {
		t.Fatal(err)
	}
	return outFrame{kind: k, buf: &body}
}

func TestBatchRoundTrip(t *testing.T) {
	client, server := pair(t)
	origin := time.Unix(0, 987654321)
	members := []outFrame{
		member(t, KindData, 0, sdo.SDO{Stream: 7, Seq: 1, Origin: origin, Hops: 2, Trace: 0xABCDEF, Payload: []byte("first"), Bytes: 5}),
		member(t, KindRouted, 9, sdo.SDO{Stream: 7, Seq: 2, Origin: origin, Hops: 3, Trace: 0x1234}),
		member(t, KindData, 0, sdo.SDO{Stream: 8, Seq: 3, Origin: origin}),
	}
	if err := client.sendBatch(members, true); err != nil {
		t.Fatal(err)
	}
	m1, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Kind != KindData || m1.SDO.Seq != 1 || m1.SDO.Hops != 2 {
		t.Fatalf("member 1 mangled: %+v", m1)
	}
	if m1.SDO.Trace != 0xABCDEF {
		t.Errorf("trace ID lost riding a batch: %#x", m1.SDO.Trace)
	}
	if string(m1.SDO.Payload.([]byte)) != "first" {
		t.Errorf("payload lost riding a batch: %+v", m1.SDO.Payload)
	}
	m2, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Kind != KindRouted || m2.To != 9 || m2.SDO.Seq != 2 {
		t.Fatalf("routed member lost destination: %+v", m2)
	}
	if m2.SDO.Trace != 0x1234 {
		t.Errorf("routed member trace ID lost: %#x", m2.SDO.Trace)
	}
	m3, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m3.Kind != KindData || m3.SDO.Seq != 3 || m3.SDO.Payload != nil {
		t.Fatalf("member 3 mangled: %+v", m3)
	}
	// A frame after the batch must decode normally (pending fully drained).
	if err := client.SendFeedback(Feedback{PE: 4, RMax: 2.5}); err != nil {
		t.Fatal(err)
	}
	m4, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m4.Kind != KindFeedback || m4.Feedback.PE != 4 {
		t.Fatalf("post-batch frame mangled: %+v", m4)
	}
}

// malformedBatch is a hand-built batch body the decoder must refuse.
type malformedBatch struct {
	name string
	body []byte
}

// malformedBatches is the table behind TestBatchDecodeErrors and the
// seed corpus of FuzzDecodeBatch.
func malformedBatches(tb testing.TB) []malformedBatch {
	// validMember is a minimal data member: kind + length + 44-byte body.
	validMember := func() []byte {
		body, err := encodeSDO(nil, sdo.SDO{Seq: 1, Origin: time.Unix(0, 1)})
		if err != nil {
			tb.Fatal(err)
		}
		m := []byte{byte(KindData), 0, 0, 0, byte(len(body))}
		return append(m, body...)
	}
	one := func(member ...byte) []byte { return append([]byte{0, 0, 0, 1}, member...) }
	return []malformedBatch{
		{"short frame", []byte{0, 0}},
		{"zero count", []byte{0, 0, 0, 0}},
		{"count beyond limit", binary.BigEndian.AppendUint32(nil, maxBatchMembers+1)},
		{"truncated member header", one(byte(KindData), 0)},
		{"member overruns frame", one(byte(KindData), 0, 0, 0, 100, 1, 2, 3)},
		{"trailing bytes", append(one(validMember()...), 0xEE)},
		{"feedback member", one(append([]byte{byte(KindFeedback), 0, 0, 0, 12}, make([]byte, 12)...)...)},
		{"nested batch member", one(byte(KindBatch), 0, 0, 0, 4, 0, 0, 0, 1)},
		{"corrupt member body", one(byte(KindData), 0, 0, 0, 3, 1, 2, 3)},
		{"corrupt member after a valid one", append(append([]byte{0, 0, 0, 2}, validMember()...), byte(KindData), 0, 0, 0, 3, 1, 2, 3)},
	}
}

// TestBatchDecodeErrors drives the decoder with hand-built malformed batch
// frames; each must surface a protocol error, never a panic or a silent
// mis-parse, and a refused batch must deliver none of its members: the
// decoder used to stage members as it went, so the Recv after "trailing
// bytes" handed out the member of the frame it had just rejected.
func TestBatchDecodeErrors(t *testing.T) {
	for _, tc := range malformedBatches(t) {
		t.Run(tc.name, func(t *testing.T) {
			raw, framed := rawPair(t)
			hdr := []byte{byte(KindBatch), 0, 0, 0, 0}
			binary.BigEndian.PutUint32(hdr[1:], uint32(len(tc.body)))
			if _, err := raw.Write(append(hdr, tc.body...)); err != nil {
				t.Fatal(err)
			}
			if _, err := framed.Recv(); err == nil {
				t.Error("malformed batch accepted")
			}
			// Nothing else was written, so with the writer gone the next
			// Recv can only end in EOF.
			raw.Close()
			if msg, err := framed.Recv(); err == nil {
				t.Errorf("rejected batch delivered a member on the next Recv: %+v", msg)
			}
		})
	}
}

// TestRecvChecksHelloVersion: a hello of this binary's version is
// consumed inside Recv, which yields the next frame; a hello of any other
// version fails Recv, so the peer is refused rather than misread.
func TestRecvChecksHelloVersion(t *testing.T) {
	client, server := pair(t)
	if err := client.SendHello(0); err != nil {
		t.Fatal(err)
	}
	if err := client.SendSDO(sdo.SDO{Seq: 5, Origin: time.Now()}); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindData || msg.SDO.Seq != 5 {
		t.Fatalf("hello leaked to the caller: %+v", msg)
	}

	raw, framed := rawPair(t)
	// A version-2 hello (version byte plus the feature word v2 carried),
	// then a data frame that must not be delivered behind it.
	v2 := []byte{byte(KindHello), 0, 0, 0, 9, 2, 0, 0, 0, 0, 0, 0, 0, 0x3F}
	data, err := encodeSDO(nil, sdo.SDO{Seq: 6, Origin: time.Unix(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	v2 = append(append(v2, byte(KindData), 0, 0, 0, byte(len(data))), data...)
	if _, err := raw.Write(v2); err != nil {
		t.Fatal(err)
	}
	if msg, err := framed.Recv(); err == nil {
		t.Errorf("hello of protocol version 2 accepted; delivered %+v", msg)
	}
}

func TestRecvRejectsBadHelloFrame(t *testing.T) {
	raw, framed := rawPair(t)
	hdr := []byte{byte(KindHello), 0, 0, 0, 2}
	if _, err := raw.Write(append(hdr, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err == nil {
		t.Error("truncated hello accepted")
	}
}

func TestSendBatchRejectsOversizedTotal(t *testing.T) {
	client, _ := pair(t)
	hugeBody := make([]byte, maxFrame/2)
	huge := outFrame{kind: KindData, buf: &hugeBody}
	if err := client.sendBatch([]outFrame{huge, huge, huge}, true); err == nil {
		t.Error("batch beyond maxFrame accepted")
	}
}

// TestResilientBatchesWhenNegotiated proves the end-to-end coalescing
// path: with BatchMax > 1 the writer folds an outbox backlog into
// KindBatch frames whose members all arrive. The counting server never
// sends a hello; batching does not wait for one.
func TestResilientBatchesWhenNegotiated(t *testing.T) {
	srv := newCountingServer(t)
	rc := NewResilientConn(func() (*Conn, error) {
		return Dial(srv.addr(), time.Second)
	}, ResilientOptions{BatchMax: 32, BatchLinger: 20 * time.Millisecond})
	defer rc.Close()

	const total = 256
	for i := 0; i < total; i++ {
		if err := rc.SendSDO(sdo.SDO{Stream: 1, Seq: uint64(i), Origin: time.Now()}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.frames.Load() == total }, "batched members delivered")
	st := rc.Stats()
	if st.FramesSent != total || st.FramesDropped != 0 {
		t.Errorf("stats = %+v, want %d sent, 0 dropped", st, total)
	}
	if st.BatchesSent == 0 {
		t.Fatalf("no batch frames sent with BatchMax 32: %+v", st)
	}
	if fill := float64(st.BatchedFrames) / float64(st.BatchesSent); fill < 2 {
		t.Errorf("mean batch fill %.1f < 2; writer is not coalescing", fill)
	}
}

// TestMidBatchSeverCountsMemberSDOs arms a byte-bounded sever so the
// connection dies inside a batch frame's write. Loss accounting must bill
// every member SDO of the failed batch — counting one drop per wire frame
// would leave most of the batch's SDOs unaccounted.
func TestMidBatchSeverCountsMemberSDOs(t *testing.T) {
	srv := newCountingServer(t)
	var current atomic.Pointer[FlakyConn]
	var asyncDrops atomic.Int64
	var nonData atomic.Int64
	rc := NewResilientConn(func() (*Conn, error) {
		raw, err := net.DialTimeout("tcp", srv.addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := WrapFlaky(raw)
		current.Store(f)
		return NewConn(f), nil
	}, ResilientOptions{
		BatchMax:   32,
		BackoffMin: 10 * time.Millisecond,
		OnDrop: func(k Kind, hops int, trace uint64) {
			asyncDrops.Add(1)
			if k != KindData {
				nonData.Add(1)
			}
		},
	})
	defer rc.Close()

	// Warm up so the connection is live, then note its flaky wrapper.
	if err := rc.SendSDO(sdo.SDO{Seq: 0, Origin: time.Now()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.frames.Load() == 1 }, "warmup frame")
	flaky := current.Load()

	// Stall the pipe, then flush one sacrificial frame into the stall: the
	// writer blocks inside its flush while the outbox fills behind it, so
	// the next burst drains as one batch. The sever quota lets the
	// sacrificial frame through and dies a few bytes into the batch.
	const sacrificialLen = 5 + 36 // frame header + empty-payload SDO body
	flaky.Stall(100 * time.Millisecond)
	flaky.SeverAfterBytes(sacrificialLen + 9)
	if err := rc.SendSDO(sdo.SDO{Seq: 1, Origin: time.Now()}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the writer enter the stalled flush
	const batchSDOs = 16
	for i := 0; i < batchSDOs; i++ {
		if err := rc.SendSDO(sdo.SDO{Seq: uint64(2 + i), Origin: time.Now()}); err != nil {
			t.Fatalf("batch send %d: %v", i, err)
		}
	}

	// Every SDO of the severed batch must surface as an individual drop.
	waitFor(t, 5*time.Second, func() bool { return asyncDrops.Load() >= batchSDOs }, "per-member drop accounting")
	if got := asyncDrops.Load(); got != batchSDOs {
		t.Errorf("async drops = %d, want %d (one per member SDO)", got, batchSDOs)
	}
	if nonData.Load() != 0 {
		t.Errorf("%d non-data drops reported for a data-only batch", nonData.Load())
	}
	waitFor(t, 5*time.Second, func() bool { return rc.Stats().FramesDropped >= batchSDOs }, "stats count members")

	// The link must heal and deliver again after the mid-batch sever.
	waitFor(t, 5*time.Second, func() bool {
		rc.SendSDO(sdo.SDO{Seq: 99, Origin: time.Now()})
		return srv.frames.Load() > 2
	}, "post-sever delivery")
}

// TestLargeBatchGatheredWrite round-trips a batch big enough to take the
// net.Buffers (writev) path over real TCP: member payloads must arrive
// intact and in order, and a frame buffered before the gathered write
// must hit the wire first (the vec path flushes the bufio writer before
// bypassing it).
func TestLargeBatchGatheredWrite(t *testing.T) {
	client, server := pair(t)
	// A plain frame parked in the bufio writer, unflushed: the gathered
	// batch must not overtake it.
	first := sdo.SDO{Stream: 1, Seq: 1000, Origin: time.Unix(0, 1)}
	fb, err := encodeSDO(nil, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.writeFrame(KindData, fb, false); err != nil {
		t.Fatal(err)
	}

	const n = 64
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	members := make([]outFrame, n)
	total := 4
	for i := range members {
		members[i] = member(t, KindData, 0, sdo.SDO{
			Stream: 2, Seq: uint64(i), Origin: time.Unix(0, 1),
			Payload: append([]byte(nil), payload...), Bytes: len(payload),
		})
		total += 5 + len(*members[i].buf)
	}
	if total < vecMinBytes {
		t.Fatalf("test batch is %d bytes, below the %d gathered-write threshold", total, vecMinBytes)
	}
	if err := client.sendBatch(members, true); err != nil {
		t.Fatal(err)
	}

	m, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.SDO.Seq != 1000 {
		t.Fatalf("gathered batch overtook the buffered frame: first seq %d, want 1000", m.SDO.Seq)
	}
	for i := 0; i < n; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if m.Kind != KindData || m.SDO.Seq != uint64(i) {
			t.Fatalf("member %d arrived as kind %v seq %d", i, m.Kind, m.SDO.Seq)
		}
		got, ok := m.SDO.Payload.([]byte)
		if !ok || len(got) != len(payload) {
			t.Fatalf("member %d payload mangled: %T len %d", i, m.SDO.Payload, len(got))
		}
		for j := range got {
			if got[j] != payload[j] {
				t.Fatalf("member %d payload byte %d = %d, want %d", i, j, got[j], payload[j])
			}
		}
	}
	// A second gathered batch reuses the scratch; it must not carry stale
	// member references or headers.
	if err := client.sendBatch(members[:8], true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.SDO.Seq != uint64(i) {
			t.Fatalf("second batch member %d arrived with seq %d", i, m.SDO.Seq)
		}
	}
}

// batchBody encodes members as a KindBatch frame body, the way sendBatch
// lays them out on the wire.
func batchBody(members []outFrame) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(members)))
	for _, m := range members {
		body = append(body, byte(m.kind))
		body = binary.BigEndian.AppendUint32(body, uint32(len(*m.buf)))
		body = append(body, *m.buf...)
	}
	return body
}

// TestBatchPayloadSlab covers what sharing one slab per frame could break:
// header-only and payload members mixed in one batch, a payload above the
// slab cap, an append on one payload reaching its neighbour, and a view
// outliving the frame body it was copied from.
func TestBatchPayloadSlab(t *testing.T) {
	client, server := pair(t)
	origin := time.Unix(0, 1)
	sizes := []int{512, 0, 512, slabCap + 1, 0, 100, slabCap, 7}
	send := func(base byte) {
		t.Helper()
		members := make([]outFrame, len(sizes))
		for i, n := range sizes {
			s := sdo.SDO{Stream: 1, Seq: uint64(i), Origin: origin}
			if n > 0 {
				s.Payload = bytes.Repeat([]byte{base + byte(i)}, n)
			}
			members[i] = member(t, KindRouted, sdo.PEID(i), s)
		}
		if err := client.sendBatch(members, true); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(base byte) [][]byte {
		t.Helper()
		got := make([][]byte, len(sizes))
		for i, n := range sizes {
			m, err := server.Recv()
			if err != nil {
				t.Fatalf("member %d: %v", i, err)
			}
			if m.Kind != KindRouted || m.To != sdo.PEID(i) || m.SDO.Seq != uint64(i) {
				t.Fatalf("member %d arrived as kind %v to %d seq %d", i, m.Kind, m.To, m.SDO.Seq)
			}
			if n == 0 {
				if m.SDO.Payload != nil || m.SDO.Bytes != 1 {
					t.Fatalf("header-only member %d decoded with payload %v, bytes %d", i, m.SDO.Payload, m.SDO.Bytes)
				}
				continue
			}
			p, ok := m.SDO.Payload.([]byte)
			if !ok || m.SDO.Bytes != n || !bytes.Equal(p, bytes.Repeat([]byte{base + byte(i)}, n)) {
				t.Fatalf("member %d payload mangled: %T, %d bytes, SDO.Bytes %d", i, m.SDO.Payload, len(p), m.SDO.Bytes)
			}
			if cap(p) != len(p) {
				t.Errorf("member %d payload has cap %d beyond its len %d: an append would write into the slab", i, cap(p), len(p))
			}
			got[i] = p
		}
		return got
	}
	send(1)
	first := recv(1)
	// Appending to one payload must leave its slab neighbour intact.
	_ = append(first[0], bytes.Repeat([]byte{0xFF}, 600)...)
	// The second frame of the same size is read into the same Conn-owned
	// body buffer; the first frame's payloads must not be views into it.
	send(101)
	recv(101)
	for i, n := range sizes {
		if n > 0 && !bytes.Equal(first[i], bytes.Repeat([]byte{1 + byte(i)}, n)) {
			t.Errorf("payload %d of the first frame changed after an append on payload 0 and the next frame's decode", i)
		}
	}
}

// payloadBatch is a valid batch of routed members, one per size, whose
// payloads are distinct byte patterns (a size of 0 is a header-only
// member). It returns the body and the payload each member carries.
func payloadBatch(tb testing.TB, sizes []int) (body []byte, sent [][]byte) {
	tb.Helper()
	members := make([]outFrame, len(sizes))
	sent = make([][]byte, len(sizes))
	for i, n := range sizes {
		s := sdo.SDO{Stream: 1, Seq: uint64(i), Origin: time.Unix(0, 1)}
		if n > 0 {
			p := make([]byte, n)
			for j := range p {
				p[j] = byte(i*7 + j)
			}
			s.Payload, s.Bytes, sent[i] = p, n, p
		}
		b, err := encodeRouted(nil, sdo.PEID(i), s)
		if err != nil {
			tb.Fatal(err)
		}
		members[i] = outFrame{kind: KindRouted, buf: &b}
	}
	return batchBody(members), sent
}

// mixedSizes interleaves header-only members with 512-byte payloads over
// more than one slab, with one payload above slabCap in the middle.
func mixedSizes() []int {
	var sizes []int
	for i := 0; i < 150; i++ {
		switch {
		case i == 75:
			sizes = append(sizes, slabCap+3)
		case i%3 == 1:
			sizes = append(sizes, 0)
		default:
			sizes = append(sizes, 512)
		}
	}
	return sizes
}

// TestBoxedPayloadRoundTrip: a payload boxed in place in its slab's header
// array must be an ordinary []byte to every consumer. Each decoded payload
// of a mixed batch type-switches as []byte in the encoder, equals the
// sent bytes with no spare capacity, and re-sends unchanged.
func TestBoxedPayloadRoundTrip(t *testing.T) {
	sizes := mixedSizes()
	small := 0
	for _, n := range sizes {
		if n <= slabCap {
			small += n
		}
	}
	if small <= slabCap {
		t.Fatalf("mixed batch carries %d bytes in slab-sized payloads, not enough to span a slab", small)
	}
	body, sent := payloadBatch(t, sizes)
	var c Conn
	if err := c.decodeBatch(body); err != nil {
		t.Fatal(err)
	}
	client, server := pair(t)
	for i, want := range sent {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if want == nil {
			if m.SDO.Payload != nil {
				t.Fatalf("header-only member %d decoded with payload %v", i, m.SDO.Payload)
			}
			continue
		}
		enc, err := encodeSDO(nil, m.SDO)
		if err != nil {
			t.Fatalf("member %d: encoder refused the decoded payload: %v", i, err)
		}
		if !bytes.Equal(enc[sdoHeaderLen:], want) {
			t.Fatalf("member %d: encoder saw a different payload", i)
		}
		p := m.SDO.Payload.([]byte)
		if !bytes.Equal(p, want) || cap(p) != len(p) {
			t.Fatalf("member %d payload mangled: len %d cap %d, want len %d", i, len(p), cap(p), len(want))
		}
		if err := server.SendSDO(m.SDO); err != nil {
			t.Fatal(err)
		}
		back, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := back.SDO.Payload.([]byte); !ok || !bytes.Equal(got, want) || back.SDO.Seq != uint64(i) {
			t.Fatalf("member %d re-sent as seq %d payload %T of %d bytes", i, back.SDO.Seq, back.SDO.Payload, len(got))
		}
	}
}

// TestPayloadRetentionBound: a payload a PE keeps pins its own slab and
// header array, not the frame. Keeping one payload of a 256 × 512 B batch
// (four slabs) must leave under one slab plus one header array live;
// a header array shared by the frame would pin all ~128 KiB.
func TestPayloadRetentionBound(t *testing.T) {
	sizes := make([]int, 256)
	for i := range sizes {
		sizes[i] = 512
	}
	body, _ := payloadBatch(t, sizes)
	keep := func() any {
		var c Conn
		if err := c.decodeBatch(body); err != nil {
			t.Fatal(err)
		}
		var kept any
		for i := range sizes {
			m, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if i == 30 {
				kept = m.SDO.Payload
			}
		}
		return kept
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := keep()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(body) // the frame is the sender's; only what decode made counts
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Errorf("one kept payload pins %d heap bytes, want under one slab plus its headers (%d)", grew, 64<<10)
	}
	if p := kept.([]byte); len(p) != 512 || p[0] != 30*7 {
		t.Errorf("kept payload changed: len %d first byte %d", len(p), p[0])
	}
}

// FuzzDecodeBatch feeds the batch decoder arbitrary bodies: it parses bytes
// from outside the process, so it must never panic, must be all-or-nothing
// (an error leaves no member pending), must never hold more payload bytes
// than the frame carried, and must hand every payload member back as a
// []byte equal to the member's payload.
func FuzzDecodeBatch(f *testing.F) {
	for _, tc := range malformedBatches(f) {
		f.Add(tc.body)
	}
	s := sdo.SDO{Stream: 3, Seq: 9, Origin: time.Unix(0, 5), Hops: 1, Trace: 2, Key: 4}
	small, err := encodeSDO(nil, s)
	if err != nil {
		f.Fatal(err)
	}
	s.Payload = bytes.Repeat([]byte{7}, 300)
	routed, err := encodeRouted(nil, 5, s)
	if err != nil {
		f.Fatal(err)
	}
	replica, err := encodeReplica(nil, 5, 2, s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batchBody([]outFrame{{kind: KindData, buf: &small}}))
	f.Add(batchBody([]outFrame{{kind: KindRouted, buf: &routed}, {kind: KindData, buf: &small}, {kind: KindReplica, buf: &replica}}))
	mixed, _ := payloadBatch(f, mixedSizes())
	f.Add(mixed)
	oversize, _ := payloadBatch(f, []int{0, slabCap + 1, 0})
	f.Add(oversize)
	f.Fuzz(func(t *testing.T, body []byte) {
		var c Conn
		err := c.decodeBatch(body)
		pending := c.pending[c.pendHead:]
		if err != nil {
			if len(pending) != 0 {
				t.Fatalf("rejected batch (%v) left %d members pending", err, len(pending))
			}
			return
		}
		if want := binary.BigEndian.Uint32(body); uint32(len(pending)) != want {
			t.Fatalf("accepted batch of %d members staged %d", want, len(pending))
		}
		held := 0
		rest := body[4:]
		for i := range pending {
			k := Kind(rest[0])
			mlen := binary.BigEndian.Uint32(rest[1:5])
			want := rest[5+dataPrefix(k)+sdoHeaderLen : 5+mlen]
			rest = rest[5+mlen:]
			p, _ := pending[i].sdo.Payload.([]byte)
			if len(want) == 0 {
				if pending[i].sdo.Payload != nil {
					t.Fatalf("header-only member %d decoded with payload %T", i, pending[i].sdo.Payload)
				}
				continue
			}
			if !bytes.Equal(p, want) {
				t.Fatalf("member %d: payload %T of %d bytes, the member carried %d", i, pending[i].sdo.Payload, len(p), len(want))
			}
			if cap(p) != len(p) || pending[i].sdo.Bytes != len(p) {
				t.Fatalf("member %d: payload len %d cap %d, SDO.Bytes %d", i, len(p), cap(p), pending[i].sdo.Bytes)
			}
			held += cap(p)
		}
		if held > len(body) {
			t.Fatalf("payloads hold %d bytes, the frame carried %d", held, len(body))
		}
	})
}
