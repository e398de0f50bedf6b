package transport

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestTargetsRoundTrip(t *testing.T) {
	client, server := pair(t)
	in := Targets{Term: 2, Epoch: 7, CPU: []float64{0.25, 0, 0.75, math.Pi}}
	if err := client.SendTargets(in); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindTargets || msg.Targets.Term != 2 || msg.Targets.Epoch != 7 {
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
	body := make([]byte, 20)
	body[19] = 3 // count=3 but zero f64 entries follow
	if err := client.send(KindTargets, body); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err == nil {
		t.Errorf("malformed targets frame accepted")
	}
}

// TestResilientTargetsNegotiated round-trips a target vector between two
// ResilientConns. Neither side reads the other's hello first.
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
	// Targets sent before A's connection is up are discarded, not queued.
	waitFor(t, 5*time.Second, func() bool {
		if err := rcA.SendTargets(Targets{Epoch: 9, CPU: []float64{0.5, 0.5}}); err != nil {
			t.Errorf("SendTargets: %v", err)
		}
		return gotEpoch.Load() == 9
	}, "targets delivery")
}
