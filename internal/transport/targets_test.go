package transport

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestTargetsRoundTrip(t *testing.T) {
	client, server := pair(t)
	in := Targets{Epoch: 7, CPU: []float64{0.25, 0, 0.75, math.Pi}}
	if err := client.SendTargets(in); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindTargets || msg.Targets.Epoch != 7 {
		t.Fatalf("targets frame lost: %+v", msg)
	}
	if len(msg.Targets.CPU) != len(in.CPU) {
		t.Fatalf("CPU vector length %d, want %d", len(msg.Targets.CPU), len(in.CPU))
	}
	for j, c := range in.CPU {
		if msg.Targets.CPU[j] != c {
			t.Errorf("CPU[%d] = %g, want %g", j, msg.Targets.CPU[j], c)
		}
	}
}

func TestTargetsEmptyVectorRoundTrip(t *testing.T) {
	client, server := pair(t)
	if err := client.SendTargets(Targets{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindTargets || msg.Targets.Epoch != 1 || len(msg.Targets.CPU) != 0 {
		t.Errorf("empty targets frame lost: %+v", msg)
	}
}

func TestRecvRejectsBadTargetsFrame(t *testing.T) {
	// Count disagrees with the body size: must be a protocol error, not a
	// short read or a garbage vector.
	client, server := pair(t)
	body := make([]byte, 12)
	body[11] = 3 // count=3 but zero f64 entries follow
	if err := client.send(KindTargets, body); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err == nil {
		t.Errorf("malformed targets frame accepted")
	}
}

// TestResilientTargetsNegotiated mirrors the heartbeat negotiation test:
// targets flow only after the peer's hello advertises FeatureRetarget.
func TestResilientTargetsNegotiated(t *testing.T) {
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

	var gotEpoch atomic.Uint64
	go func() {
		for {
			msg, err := rcB.Recv()
			if err != nil {
				return
			}
			if msg.Kind == KindTargets && len(msg.Targets.CPU) == 2 {
				gotEpoch.Store(msg.Targets.Epoch)
			}
		}
	}()
	// A's writer only learns B's features through A's own Recv loop.
	go func() {
		for {
			if _, err := rcA.Recv(); err != nil {
				return
			}
		}
	}()

	waitFor(t, 5*time.Second, func() bool { return rcA.PeerSupportsRetarget() }, "hello negotiation")
	waitFor(t, 5*time.Second, func() bool {
		if err := rcA.SendTargets(Targets{Epoch: 9, CPU: []float64{0.5, 0.5}}); err != nil {
			t.Errorf("SendTargets: %v", err)
		}
		return gotEpoch.Load() == 9
	}, "targets delivery")
}

// TestResilientTargetsSkippedAgainstOldPeer is the v1 interop case: the
// peer never sends a hello (an un-upgraded binary), so target frames must
// be silently withheld — the old vocabulary has no KindTargets — while
// data frames keep flowing untouched.
func TestResilientTargetsSkippedAgainstOldPeer(t *testing.T) {
	srv := newCountingServer(t)
	rc := NewResilientConn(func() (*Conn, error) {
		return Dial(srv.addr(), time.Second)
	}, ResilientOptions{})
	defer rc.Close()

	// Wait for a live connection, then confirm retarget stays unnegotiated.
	waitFor(t, 5*time.Second, func() bool {
		rc.mu.Lock()
		up := rc.cur.Load() != nil
		rc.mu.Unlock()
		return up
	}, "connection up")
	if rc.PeerSupportsRetarget() {
		t.Fatalf("silent peer credited with FeatureRetarget")
	}
	if err := rc.SendTargets(Targets{Epoch: 1, CPU: []float64{1}}); err != nil {
		t.Fatalf("SendTargets against v1 peer: %v (want silent skip)", err)
	}
	st := rc.Stats()
	if st.FramesSent != 0 {
		t.Errorf("target frame reached the wire against a v1 peer: %+v", st)
	}
}
