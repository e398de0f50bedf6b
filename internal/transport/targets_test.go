package transport

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestTargetsRoundTrip: a ragged matrix — a one-slot row, a multi-slot
// row with a dormant slot, an empty row — keeps its shape and its bits.
func TestTargetsRoundTrip(t *testing.T) {
	client, server := pair(t)
	in := Targets{Term: 2, Epoch: 7, CPU: [][]float64{{0.3}, {0.25, 0, 0.45}, {}, {math.Pi}}}
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
	got := msg.Targets.CPU
	if len(got) != len(in.CPU) {
		t.Fatalf("matrix has %d rows, want %d", len(got), len(in.CPU))
	}
	for j := range in.CPU {
		if len(got[j]) != len(in.CPU[j]) {
			t.Fatalf("row %d has %d slots, want %d", j, len(got[j]), len(in.CPU[j]))
		}
		for r := range in.CPU[j] {
			if got[j][r] != in.CPU[j][r] {
				t.Errorf("CPU[%d][%d] = %g, want %g", j, r, got[j][r], in.CPU[j][r])
			}
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
	// The row count disagrees with the body size: must be a protocol
	// error, not a short read or a garbage matrix.
	client, server := pair(t)
	body := make([]byte, 20)
	body[19] = 3 // three rows claimed, none follow
	if err := client.writeFrame(KindTargets, body, true); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err == nil {
		t.Errorf("malformed targets frame accepted")
	}
}

// TestReplicaTargetsRowCountBoundedByBody: a targets header claiming
// 4,194,304 rows and carrying none must be refused against the bytes
// present, before the row table (96 MiB) is allocated; otherwise a few
// bytes from a peer buy that allocation once per frame. The 12-byte body
// makes the same claim in the header layout without the term.
func TestReplicaTargetsRowCountBoundedByBody(t *testing.T) {
	const rows = 1 << 22
	bodies := map[string][]byte{
		"20-byte header": binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 0), 1), rows),
		"12-byte body":   binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 1), rows),
	}
	for name, body := range bodies {
		const runs = 10
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if _, err := decodeTargets(body); err == nil {
				t.Fatalf("%s: %d rows accepted from a %d-byte body", name, rows, len(body))
			}
		}
		runtime.ReadMemStats(&m1)
		if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= 4<<10 {
			t.Errorf("%s: refusing a %d-byte body allocates %d bytes, want < 4 KiB", name, len(body), per)
		}
	}
}

// TestResilientTargetsNegotiated round-trips a target set between two
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
		if err := rcA.SendTargets(Targets{Epoch: 9, CPU: [][]float64{{0.5}, {0.5}}}); err != nil {
			t.Errorf("SendTargets: %v", err)
		}
		return gotEpoch.Load() == 9
	}, "targets delivery")
}
