package transport

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"aces/internal/sdo"
)

// pair sets up a loopback connection.
func pair(t *testing.T) (client, server *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		server = c
	}()
	client, err = Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	t.Cleanup(func() {
		client.Close()
		if server != nil {
			server.Close()
		}
	})
	return client, server
}

func TestSDORoundTrip(t *testing.T) {
	client, server := pair(t)
	origin := time.Unix(0, 1234567890123456789)
	in := sdo.SDO{Stream: 7, Seq: 42, Origin: origin, Hops: 3, Trace: 0xDEADBEEF, Payload: []byte("hello"), Bytes: 5}
	if err := client.SendSDO(in); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindData {
		t.Fatalf("kind = %v", msg.Kind)
	}
	out := msg.SDO
	if out.Stream != 7 || out.Seq != 42 || out.Hops != 3 {
		t.Errorf("fields lost: %+v", out)
	}
	if out.Trace != 0xDEADBEEF {
		t.Errorf("trace ID lost: %#x", out.Trace)
	}
	if !out.Origin.Equal(origin) {
		t.Errorf("origin %v ≠ %v", out.Origin, origin)
	}
	if string(out.Payload.([]byte)) != "hello" || out.Bytes != 5 {
		t.Errorf("payload lost: %+v", out)
	}
}

func TestEmptyPayload(t *testing.T) {
	client, server := pair(t)
	if err := client.SendSDO(sdo.SDO{Stream: 1, Seq: 9, Origin: time.Now()}); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.SDO.Payload != nil {
		t.Errorf("expected nil payload")
	}
	if msg.SDO.Bytes != 1 {
		t.Errorf("empty payload should default Bytes to 1, got %d", msg.SDO.Bytes)
	}
}

func TestRejectsNonByteSlicePayload(t *testing.T) {
	client, _ := pair(t)
	if err := client.SendSDO(sdo.SDO{Payload: 42}); err == nil {
		t.Errorf("non-[]byte payload accepted")
	}
}

func TestFeedbackRoundTrip(t *testing.T) {
	client, server := pair(t)
	if err := client.SendFeedback(Feedback{PE: 12, RMax: 3.75}); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindFeedback || msg.Feedback.PE != 12 || msg.Feedback.RMax != 3.75 {
		t.Errorf("feedback lost: %+v", msg)
	}
}

func TestInterleavedFrames(t *testing.T) {
	client, server := pair(t)
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			if err := client.SendFeedback(Feedback{PE: int32(i), RMax: float64(i)}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := client.SendSDO(sdo.SDO{Stream: 1, Seq: uint64(i), Origin: time.Now()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 100; i++ {
		msg, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if msg.Kind != KindFeedback || msg.Feedback.PE != int32(i) {
				t.Fatalf("frame %d: %+v", i, msg)
			}
		} else if msg.Kind != KindData || msg.SDO.Seq != uint64(i) {
			t.Fatalf("frame %d: %+v", i, msg)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	client, server := pair(t)
	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := client.SendSDO(sdo.SDO{Stream: 5, Origin: time.Now()}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < senders*perSender {
			if _, err := server.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("frames lost under concurrency")
	}
	if got != senders*perSender {
		t.Errorf("got %d frames, want %d", got, senders*perSender)
	}
}

func TestEOFOnClose(t *testing.T) {
	client, server := pair(t)
	client.Close()
	if _, err := server.Recv(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Errorf("dial to closed port succeeded")
	}
}

// rawSend writes raw bytes straight to the peer, bypassing the framing
// API, to exercise the decoder's error paths.
func rawPair(t *testing.T) (raw net.Conn, framed *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	done := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			done <- nil
			return
		}
		done <- c
	}()
	raw, err = net.DialTimeout("tcp", l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	framed = <-done
	if framed == nil {
		t.Fatal("no server conn")
	}
	t.Cleanup(func() {
		raw.Close()
		framed.Close()
	})
	return raw, framed
}

func TestRecvRejectsUnknownKind(t *testing.T) {
	raw, framed := rawPair(t)
	if _, err := raw.Write([]byte{0xFF, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err == nil {
		t.Errorf("unknown kind accepted")
	}
}

func TestRecvRejectsOversizedFrame(t *testing.T) {
	raw, framed := rawPair(t)
	hdr := []byte{byte(KindData), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err == nil {
		t.Errorf("oversized frame accepted")
	}
}

func TestRecvRejectsShortDataFrame(t *testing.T) {
	raw, framed := rawPair(t)
	body := make([]byte, 10) // < 36-byte minimum
	hdr := []byte{byte(KindData), 0, 0, 0, byte(len(body))}
	if _, err := raw.Write(append(hdr, body...)); err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err == nil {
		t.Errorf("short data frame accepted")
	}
}

func TestRecvRejectsDisagreeingPayloadLength(t *testing.T) {
	raw, framed := rawPair(t)
	body := make([]byte, 36)
	// Claim a 5-byte payload but send none.
	body[32], body[33], body[34], body[35] = 0, 0, 0, 5
	hdr := []byte{byte(KindData), 0, 0, 0, byte(len(body))}
	if _, err := raw.Write(append(hdr, body...)); err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err == nil {
		t.Errorf("disagreeing payload length accepted")
	}
}

func TestRecvRejectsBadFeedbackFrame(t *testing.T) {
	raw, framed := rawPair(t)
	hdr := []byte{byte(KindFeedback), 0, 0, 0, 3}
	if _, err := raw.Write(append(hdr, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err == nil {
		t.Errorf("truncated feedback frame accepted")
	}
}

func TestRoutedRoundTrip(t *testing.T) {
	client, server := pair(t)
	in := sdo.SDO{Stream: 3, Seq: 11, Origin: time.Unix(0, 42), Hops: 2, Trace: 77, Payload: []byte("xy"), Bytes: 2}
	if err := client.SendRouted(9, in); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindRouted || msg.To != 9 {
		t.Fatalf("routed frame lost destination: %+v", msg)
	}
	if msg.SDO.Seq != 11 || msg.SDO.Hops != 2 || string(msg.SDO.Payload.([]byte)) != "xy" {
		t.Errorf("routed SDO mangled: %+v", msg.SDO)
	}
	if msg.SDO.Trace != 77 {
		t.Errorf("routed frame lost trace ID: %#x", msg.SDO.Trace)
	}
}

func TestRecvRejectsShortRoutedFrame(t *testing.T) {
	raw, framed := rawPair(t)
	// A routed frame needs ≥ 4 bytes for the destination PE alone.
	hdr := []byte{byte(KindRouted), 0, 0, 0, 3}
	if _, err := raw.Write(append(hdr, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err == nil {
		t.Errorf("short routed frame accepted")
	}
}

func TestRecvTruncatedBody(t *testing.T) {
	raw, framed := rawPair(t)
	// Header promises a 40-byte body; deliver 10 and hang up mid-frame.
	hdr := []byte{byte(KindData), 0, 0, 0, 40}
	if _, err := raw.Write(append(hdr, make([]byte, 10)...)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	_, err := framed.Recv()
	if err == nil {
		t.Fatalf("truncated body accepted")
	}
	if err == io.EOF {
		t.Errorf("mid-frame truncation must surface as a protocol error, not a clean EOF")
	}
}

func TestRecvTruncatedHeader(t *testing.T) {
	raw, framed := rawPair(t)
	if _, err := raw.Write([]byte{byte(KindData), 0}); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if _, err := framed.Recv(); err == nil {
		t.Errorf("truncated header accepted")
	}
}

// FuzzDecodeFrame feeds decodeFrame every non-batch frame kind with
// arbitrary bodies (FuzzDecodeBatch covers batches): it parses bytes from
// outside the process, so it must never panic, a decoded target matrix
// must never hold more than its body carried, and a hello of any version
// but this binary's must be refused.
func FuzzDecodeFrame(f *testing.F) {
	s := sdo.SDO{Stream: 3, Seq: 9, Origin: time.Unix(0, 5), Hops: 1, Trace: 2, Key: 4, Payload: []byte("p")}
	data, err := encodeSDO(nil, s)
	if err != nil {
		f.Fatal(err)
	}
	routed, err := encodeRouted(nil, 5, s)
	if err != nil {
		f.Fatal(err)
	}
	replica, err := encodeReplica(nil, 5, 2, s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(KindData), data)
	f.Add(uint8(KindRouted), routed)
	f.Add(uint8(KindReplica), replica)
	f.Add(uint8(KindFeedback), encodeFeedback(nil, Feedback{PE: 1, RMax: 2.5}))
	f.Add(uint8(KindHeartbeat), encodeHeartbeat(nil, Heartbeat{Node: 1, Seq: 7}))
	ragged := encodeTargets(nil, Targets{Term: 1, Epoch: 2, CPU: [][]float64{{0.5}, {}, {0.1, 0.2}}})
	f.Add(uint8(KindTargets), ragged)
	f.Add(uint8(KindTargetAck), encodeTargetAck(nil, TargetAck{Origin: 3, Term: 1, Epoch: 2}))
	f.Add(uint8(KindHello), []byte{protocolVersion})
	// A header claiming 4,194,304 target rows and carrying none, then the
	// same claim in a 12-byte body (epoch and row count, no term).
	f.Add(uint8(KindTargets), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0x40, 0, 0})
	f.Add(uint8(KindTargets), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0x40, 0, 0})
	// The ragged body with its last row cut short by one slot.
	f.Add(uint8(KindTargets), ragged[:len(ragged)-8])
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		if Kind(kind) == KindBatch {
			return
		}
		var c Conn
		msg, _, err := c.decodeFrame(Kind(kind), body)
		if err != nil {
			return
		}
		switch Kind(kind) {
		case KindTargets:
			need := 4 * len(msg.Targets.CPU)
			for _, row := range msg.Targets.CPU {
				need += 8 * len(row)
			}
			if need > len(body) {
				t.Fatalf("%d-byte body decoded into a matrix needing %d bytes", len(body), need)
			}
		case KindHello:
			if len(body) == 0 || body[0] != protocolVersion {
				t.Fatalf("hello %x accepted", body)
			}
		}
	})
}
