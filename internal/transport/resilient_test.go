package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aces/internal/sdo"
)

// countingServer accepts connections in a loop (so a severed client can
// come back) and counts every data frame received across all sessions,
// and every message by kind. It never sends a hello.
type countingServer struct {
	l      *Listener
	frames atomic.Int64
	kinds  [KindTargetAck + 1]atomic.Int64
	conns  atomic.Int64
	wg     sync.WaitGroup
}

func newCountingServer(t *testing.T) *countingServer {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &countingServer{l: l}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					if msg.Kind == KindData || msg.Kind == KindRouted {
						s.frames.Add(1)
					}
					s.kinds[msg.Kind].Add(1)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		s.wg.Wait()
	})
	return s
}

func (s *countingServer) addr() string { return s.l.Addr() }

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestResilientDeliversFrames(t *testing.T) {
	srv := newCountingServer(t)
	rc := NewResilientConn(func() (*Conn, error) {
		return Dial(srv.addr(), time.Second)
	}, ResilientOptions{})
	defer rc.Close()

	for i := 0; i < 50; i++ {
		if err := rc.SendSDO(sdo.SDO{Stream: 1, Seq: uint64(i), Origin: time.Now()}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.frames.Load() == 50 }, "frames delivered")
	st := rc.Stats()
	if st.FramesSent != 50 || st.FramesDropped != 0 {
		t.Errorf("stats = %+v, want 50 sent, 0 dropped", st)
	}
}

func TestResilientSurvivesSever(t *testing.T) {
	srv := newCountingServer(t)
	var current atomic.Pointer[FlakyConn]
	rc := NewResilientConn(func() (*Conn, error) {
		raw, err := net.DialTimeout("tcp", srv.addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := WrapFlaky(raw)
		current.Store(f)
		return NewConn(f), nil
	}, ResilientOptions{BackoffMin: 10 * time.Millisecond})
	defer rc.Close()

	for i := 0; i < 10; i++ {
		if err := rc.SendSDO(sdo.SDO{Seq: uint64(i), Origin: time.Now()}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.frames.Load() == 10 }, "pre-sever frames")

	current.Load().Sever()
	// Sends during/after the sever must not block; some may be lost, which
	// is the contract (loss at the boundary, not collapse).
	waitFor(t, 5*time.Second, func() bool {
		rc.SendSDO(sdo.SDO{Seq: 99, Origin: time.Now()})
		return rc.Stats().Reconnects >= 1 && srv.frames.Load() > 10
	}, "reconnect and post-sever delivery")
}

func TestResilientSendNeverBlocksWhenPeerAbsent(t *testing.T) {
	const queue = 16
	rc := NewResilientConn(func() (*Conn, error) {
		return nil, errors.New("nobody home")
	}, ResilientOptions{QueueSize: queue, BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond})
	defer rc.Close()

	start := time.Now()
	var overflows int
	for i := 0; i < queue+25; i++ {
		if err := rc.SendSDO(sdo.SDO{Seq: uint64(i), Origin: time.Now()}); errors.Is(err, ErrOutboxFull) {
			overflows++
		}
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("sends took %v; the emit path must never block on a dead peer", el)
	}
	if overflows == 0 {
		t.Errorf("no ErrOutboxFull past a %d-frame queue with no consumer", queue)
	}
	if st := rc.Stats(); st.FramesDropped == 0 {
		t.Errorf("overflow not counted: %+v", st)
	}
}

func TestResilientStalledPeerTriggersDropAndReconnect(t *testing.T) {
	srv := newCountingServer(t)
	var current atomic.Pointer[FlakyConn]
	var asyncDrops atomic.Int64
	rc := NewResilientConn(func() (*Conn, error) {
		raw, err := net.DialTimeout("tcp", srv.addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := WrapFlaky(raw)
		current.Store(f)
		return NewConn(f), nil
	}, ResilientOptions{
		WriteTimeout: 30 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		OnDrop:       func(k Kind, hops int, trace uint64) { asyncDrops.Add(1) },
	})
	defer rc.Close()

	if err := rc.SendSDO(sdo.SDO{Origin: time.Now()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.frames.Load() == 1 }, "warmup frame")

	// Stall the pipe longer than the write deadline: the in-flight frame
	// must be dropped (not wedged) and the link must re-establish.
	current.Load().Stall(400 * time.Millisecond)
	if err := rc.SendSDO(sdo.SDO{Origin: time.Now(), Hops: 2}); err != nil {
		t.Fatalf("enqueue onto stalled link must succeed (async outbox): %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return asyncDrops.Load() >= 1 }, "stalled write dropped via OnDrop")
	waitFor(t, 5*time.Second, func() bool {
		rc.SendSDO(sdo.SDO{Origin: time.Now()})
		return srv.frames.Load() > 1
	}, "delivery resumed after stall")
	if st := rc.Stats(); st.Reconnects < 1 {
		t.Errorf("stall did not force a reconnect: %+v", st)
	}
}

func TestResilientCloseUnblocksRecv(t *testing.T) {
	srv := newCountingServer(t)
	rc := NewResilientConn(func() (*Conn, error) {
		return Dial(srv.addr(), time.Second)
	}, ResilientOptions{})

	recvDone := make(chan error, 1)
	go func() {
		_, err := rc.Recv()
		recvDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rc.Close()
	select {
	case err := <-recvDone:
		if !errors.Is(err, io.EOF) {
			t.Errorf("Recv after Close = %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := rc.SendSDO(sdo.SDO{}); !errors.Is(err, ErrLinkClosed) {
		t.Errorf("send after Close = %v, want ErrLinkClosed", err)
	}
	// Double close is safe.
	rc.Close()
}

func TestFlakyDropWrites(t *testing.T) {
	srv := newCountingServer(t)
	raw, err := net.DialTimeout("tcp", srv.addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f := WrapFlaky(raw)
	c := NewConn(f)
	defer c.Close()
	if err := c.SendSDO(sdo.SDO{Origin: time.Now()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.frames.Load() == 1 }, "clean frame")
	f.DropWrites(true)
	if err := c.SendSDO(sdo.SDO{Origin: time.Now()}); err != nil {
		t.Fatalf("dropped write should report success: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if srv.frames.Load() != 1 {
		t.Errorf("dropped write reached the peer")
	}
	f.DropWrites(false)
	if err := c.SendSDO(sdo.SDO{Origin: time.Now()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.frames.Load() == 2 }, "post-drop frame")
}

// halfOpenDialer returns connections that are already dead: every write
// fails immediately, the signature of a half-open peer that completes the
// TCP handshake but never services the session.
func halfOpenDialer(dials *atomic.Int64) DialFunc {
	return func() (*Conn, error) {
		dials.Add(1)
		c1, c2 := net.Pipe()
		c1.Close()
		c2.Close()
		return NewConn(c1), nil
	}
}

// TestResilientBackoffNotResetByDialAlone is the regression test for the
// half-open hot-loop: a dial that succeeds but whose connection dies
// before any successful write must keep growing the reconnect backoff.
// Before the fix, dial success reset the backoff to BackoffMin and the
// manager redialed such a peer in a tight loop.
func TestResilientBackoffNotResetByDialAlone(t *testing.T) {
	var dials atomic.Int64
	rc := NewResilientConn(halfOpenDialer(&dials), ResilientOptions{
		BackoffMin: 20 * time.Millisecond,
		BackoffMax: 160 * time.Millisecond,
	})
	defer rc.Close()

	// Keep frames queued so the writer also exercises the dead conns.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				rc.SendSDO(sdo.SDO{Origin: time.Now()})
			}
		}
	}()
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Exponential growth 20→40→80→160→160… admits ~6 dials in 500 ms
	// (plus the first immediate one). A backoff reset on every dial
	// success would admit hundreds.
	if n := dials.Load(); n < 2 || n > 20 {
		t.Errorf("half-open peer was dialed %d times in 500ms; backoff is not growing", n)
	}
}

// TestResilientBackoffResetsAfterWrite asserts the other half of the
// contract: a generation that lands a write earns a fresh minimum
// backoff, so a healthy link that drops reconnects promptly even after a
// string of earlier failures inflated the backoff.
func TestResilientBackoffResetsAfterWrite(t *testing.T) {
	srv := newCountingServer(t)
	var down atomic.Bool
	var current atomic.Pointer[FlakyConn]
	rc := NewResilientConn(func() (*Conn, error) {
		if down.Load() {
			return nil, errors.New("injected outage")
		}
		raw, err := net.DialTimeout("tcp", srv.addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := WrapFlaky(raw)
		current.Store(f)
		return NewConn(f), nil
	}, ResilientOptions{
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 3 * time.Second,
	})
	defer rc.Close()

	// Inflate the backoff toward BackoffMax with failed dials.
	down.Store(true)
	time.Sleep(400 * time.Millisecond)
	down.Store(false)

	// Heal; a write must land eventually despite the inflated backoff.
	waitFor(t, 10*time.Second, func() bool {
		rc.SendSDO(sdo.SDO{Origin: time.Now()})
		return srv.frames.Load() > 0
	}, "first delivery after outage")

	// The landed write reset the backoff: after a sever, the reconnect
	// and next delivery must happen in well under BackoffMax.
	sent := srv.frames.Load()
	current.Load().Sever()
	start := time.Now()
	waitFor(t, 2*time.Second, func() bool {
		rc.SendSDO(sdo.SDO{Origin: time.Now()})
		return srv.frames.Load() > sent
	}, "post-sever delivery (backoff should have reset)")
	if el := time.Since(start); el > 1500*time.Millisecond {
		t.Errorf("reconnect after healthy generation took %v; backoff did not reset on write", el)
	}
}

// TestResilientHeartbeatNegotiated round-trips heartbeats between two
// ResilientConns: beacons flow on the control path, and SendHeartbeat
// before the connection is up silently discards instead of queueing
// stale liveness claims.
func TestResilientHeartbeatNegotiated(t *testing.T) {
	lis, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	rcA := NewResilientConn(func() (*Conn, error) {
		return Dial(lis.Addr(), time.Second)
	}, ResilientOptions{})
	defer rcA.Close()
	rcB := NewResilientConn(func() (*Conn, error) {
		return lis.Accept()
	}, ResilientOptions{})
	defer rcB.Close()

	var got atomic.Int64
	var lastNode atomic.Int32
	go func() {
		for {
			msg, err := rcB.Recv()
			if err != nil {
				return
			}
			if msg.Kind == KindHeartbeat {
				lastNode.Store(msg.Heartbeat.Node)
				got.Add(1)
			}
		}
	}()
	waitFor(t, 5*time.Second, func() bool {
		if err := rcA.SendHeartbeat(Heartbeat{Node: 3, Seq: 1}); err != nil {
			t.Errorf("SendHeartbeat: %v", err)
		}
		return got.Load() > 0
	}, "heartbeat delivery")
	if lastNode.Load() != 3 {
		t.Errorf("heartbeat node = %d, want 3", lastNode.Load())
	}
}

// The reserved control lane: a data burst that fills the outbox must not
// crowd a target frame off the link. Flood the data lane to overflow
// against a stalled pipe, then send targets — they must enqueue without
// ErrOutboxFull, drop nothing on the control counter, and arrive once
// the stall clears. Only a control-plane flood itself may spill, and
// when it does the loss is visible as ControlDropped.
func TestControlLaneSurvivesDataFlood(t *testing.T) {
	lis, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	type gotTargets struct {
		term, epoch uint64
	}
	targetCh := make(chan gotTargets, 256)
	var srvWG sync.WaitGroup
	// Cleanups run after the deferred lis.Close/rc.Close unblock the
	// accept and read loops, so the Wait cannot deadlock.
	t.Cleanup(srvWG.Wait)
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			srvWG.Add(1)
			go func() {
				defer srvWG.Done()
				defer c.Close()
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					if msg.Kind == KindTargets {
						select {
						case targetCh <- gotTargets{msg.Targets.Term, msg.Targets.Epoch}:
						default:
						}
					}
				}
			}()
		}
	}()

	var current atomic.Pointer[FlakyConn]
	rc := NewResilientConn(func() (*Conn, error) {
		raw, err := net.DialTimeout("tcp", lis.Addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := WrapFlaky(raw)
		current.Store(f)
		return NewConn(f), nil
	}, ResilientOptions{
		QueueSize:    8,
		WriteTimeout: 5 * time.Second, // a stall must fill queues, not retire the conn
		BackoffMin:   10 * time.Millisecond,
	})
	defer rc.Close()
	waitFor(t, 5*time.Second, func() bool { return rc.cur.Load() != nil }, "connection up")

	// Stall the pipe and flood the data lane until it overflows.
	current.Load().Stall(400 * time.Millisecond)
	overflowed := false
	for i := 0; i < 200 && !overflowed; i++ {
		overflowed = errors.Is(rc.SendSDO(sdo.SDO{Seq: uint64(i), Origin: time.Now()}), ErrOutboxFull)
	}
	if !overflowed {
		t.Fatal("data flood never overflowed an 8-frame outbox against a stalled pipe")
	}
	// The control lane still has room: the target frame enqueues cleanly.
	if err := rc.SendTargets(Targets{Term: 1, Epoch: 7, CPU: []float64{0.5, 0.5}}); err != nil {
		t.Fatalf("SendTargets with a full data outbox: %v", err)
	}
	if st := rc.Stats(); st.ControlDropped != 0 {
		t.Errorf("pure data flood dropped %d control frames", st.ControlDropped)
	}
	// Once the stall clears, head-of-burst priority lands the targets.
	select {
	case got := <-targetCh:
		if got.term != 1 || got.epoch != 7 {
			t.Errorf("delivered targets (term %d, epoch %d), want (1, 7)", got.term, got.epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("target frame never delivered after the flood")
	}

	// A control-plane flood is the only thing allowed to spill the lane,
	// and the spill must be visible on the control counter.
	current.Load().Stall(400 * time.Millisecond)
	ctlOverflow := false
	for i := 0; i < 400; i++ {
		if errors.Is(rc.SendTargets(Targets{Term: 1, Epoch: uint64(100 + i), CPU: []float64{0.5, 0.5}}), ErrOutboxFull) {
			ctlOverflow = true
		}
	}
	if !ctlOverflow {
		t.Fatal("400 target frames never overflowed the 64-frame control lane")
	}
	if st := rc.Stats(); st.ControlDropped == 0 {
		t.Errorf("control-lane overflow not counted: %+v", st)
	}
}

// TestHotPathTakesNoLinkLock holds rc.mu (the connection-replacement lock)
// and requires a replica send and a Recv with members already staged to
// complete regardless: both used to take rc.mu once per SDO.
func TestHotPathTakesNoLinkLock(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan Message, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		body, _ := encodeSDO(nil, sdo.SDO{Seq: 7, Origin: time.Unix(0, 1)})
		frame := outFrame{kind: KindData, body: body}
		if c.sendBatch([]outFrame{frame, frame}, true) != nil {
			return
		}
		if msg, err := c.Recv(); err == nil {
			got <- msg
		}
		c.Recv() // hold the connection open until the link closes
	}()
	rc := NewResilientConn(func() (*Conn, error) { return Dial(l.Addr(), time.Second) }, ResilientOptions{})
	defer rc.Close()
	// The first member's Recv stages the second member.
	if _, err := rc.Recv(); err != nil {
		t.Fatal(err)
	}

	rc.mu.Lock()
	done := make(chan error, 2)
	go func() { done <- rc.SendReplica(4, 1, sdo.SDO{Seq: 1, Origin: time.Unix(0, 1)}) }()
	go func() {
		_, err := rc.Recv()
		done <- err
	}()
wait:
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("hot-path call failed under rc.mu: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("SendReplica or a staged Recv blocked on rc.mu")
			break wait
		}
	}
	rc.mu.Unlock()

	select {
	case msg := <-got:
		if msg.Kind != KindReplica || msg.To != 4 || msg.Rep != 1 {
			t.Errorf("frame enqueued under rc.mu arrived as kind %v to %d rep %d, want a replica frame", msg.Kind, msg.To, msg.Rep)
		}
	case <-time.After(5 * time.Second):
		t.Error("frame enqueued under rc.mu never reached the peer")
	}
}

// TestSeverStormKeepsAccounting runs senders through a storm of severs
// and redials: every injected frame must end up counted as sent or
// dropped, and the peer can have received at most what was counted sent.
// (received can only bound sent from below: TCP does not say which bytes
// a severed socket had accepted but not delivered.)
func TestSeverStormKeepsAccounting(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			srvWG.Add(1)
			go func() {
				defer srvWG.Done()
				defer c.Close()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
					received.Add(1)
				}
			}()
		}
	}()
	var current atomic.Pointer[FlakyConn]
	rc := NewResilientConn(func() (*Conn, error) {
		raw, err := net.DialTimeout("tcp", l.Addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := WrapFlaky(raw)
		current.Store(f)
		return NewConn(f), nil
	}, ResilientOptions{BatchMax: 16, BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond})

	var injected atomic.Int64
	var stop atomic.Bool
	var senders sync.WaitGroup
	for s := 0; s < 2; s++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := uint64(0); !stop.Load(); i++ {
				err := rc.SendReplica(3, int32(i%2), sdo.SDO{Seq: i, Origin: time.Unix(0, 1)})
				if err != nil && err != ErrOutboxFull {
					t.Errorf("send: %v", err)
					return
				}
				injected.Add(1)
				if i%64 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		time.Sleep(5 * time.Millisecond)
		if f := current.Load(); f != nil {
			f.Sever()
		}
	}
	stop.Store(true)
	senders.Wait()
	waitFor(t, 10*time.Second, func() bool {
		st := rc.Stats()
		return st.FramesSent+st.FramesDropped == injected.Load()
	}, "every injected frame counted as sent or dropped")
	st := rc.Stats()
	rc.Close()
	l.Close()
	srvWG.Wait()

	if st.Reconnects < 5 {
		t.Errorf("only %d reconnects: the storm did not exercise redial", st.Reconnects)
	}
	if got := received.Load(); got == 0 || got > st.FramesSent {
		t.Errorf("peer received %d frames, link counted %d sent", got, st.FramesSent)
	}
	t.Logf("injected %d, sent %d, dropped %d, received %d, reconnects %d",
		injected.Load(), st.FramesSent, st.FramesDropped, received.Load(), st.Reconnects)
}

// TestResilientSendsWithoutWaitingForHello: a fresh ResilientConn whose
// peer never sends a hello, and which never reads, still batches data and
// sends replica frames, heartbeats, targets, replica targets and acks as
// soon as its connection is up: nothing on the send side waits on the
// peer's hello.
func TestResilientSendsWithoutWaitingForHello(t *testing.T) {
	srv := newCountingServer(t)
	rc := NewResilientConn(func() (*Conn, error) {
		return Dial(srv.addr(), time.Second)
	}, ResilientOptions{BatchMax: 32, BatchLinger: 20 * time.Millisecond})
	defer rc.Close()
	waitFor(t, 5*time.Second, func() bool { return rc.cur.Load() != nil }, "connection up")

	sends := []error{
		rc.SendHeartbeat(Heartbeat{Node: 1, Seq: 1}),
		rc.SendTargets(Targets{Term: 1, Epoch: 2, CPU: []float64{1}}),
		rc.SendReplicaTargets(ReplicaTargets{Term: 1, Epoch: 2, CPU: [][]float64{{0.5, 0.5}}}),
		rc.SendTargetAck(TargetAck{Origin: 3, Term: 1, Epoch: 2}),
	}
	const data = 64
	for i := 0; i < data; i++ {
		sends = append(sends, rc.SendReplica(4, 1, sdo.SDO{Seq: uint64(i), Origin: time.Unix(0, 1)}))
	}
	for i, err := range sends {
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.kinds[KindReplica].Load() == data }, "replica frames delivered")
	for _, k := range []Kind{KindHeartbeat, KindTargets, KindReplicaTargets, KindTargetAck} {
		waitFor(t, 5*time.Second, func() bool { return srv.kinds[k].Load() == 1 }, fmt.Sprintf("kind %d delivered", k))
	}
	if st := rc.Stats(); st.BatchesSent == 0 {
		t.Errorf("no batch frames sent to a peer that never sent a hello: %+v", st)
	}
}

// TestResilientRefusesVersionMismatch: a peer whose hello names another
// protocol version is refused. Recv fails on the hello, so the frame the
// peer sends after it is never delivered, and the link keeps retiring the
// connection and redialing.
func TestResilientRefusesVersionMismatch(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var srvWG sync.WaitGroup
	t.Cleanup(srvWG.Wait)
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			// A version-2 hello (version byte plus feature word), then a
			// data frame the refusing side must never deliver.
			body := append([]byte{2}, make([]byte, 8)...)
			if c.send(KindHello, body) != nil || c.SendSDO(sdo.SDO{Seq: 1, Origin: time.Unix(0, 1)}) != nil {
				c.Close()
				continue
			}
			srvWG.Add(1)
			go func() {
				defer srvWG.Done()
				defer c.Close()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
	rc := NewResilientConn(func() (*Conn, error) {
		return Dial(l.Addr(), time.Second)
	}, ResilientOptions{BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	defer rc.Close()
	var delivered atomic.Int64
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			if _, err := rc.Recv(); err != nil {
				return
			}
			delivered.Add(1)
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return rc.Stats().Reconnects >= 3 }, "redials after refusals")
	rc.Close()
	<-recvDone
	if n := delivered.Load(); n != 0 {
		t.Errorf("%d frames delivered from a peer of another protocol version", n)
	}
}
