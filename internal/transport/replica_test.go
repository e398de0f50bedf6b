package transport

import (
	"encoding/binary"
	"runtime"
	"testing"

	"aces/internal/sdo"
)

func TestReplicaFrameRoundTrip(t *testing.T) {
	client, server := pair(t)
	in := sdo.SDO{Stream: 3, Seq: 41, Key: 0xDEADBEEF, Hops: 2, Payload: []byte("k7")}
	if err := client.SendReplica(5, 2, in); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindReplica || msg.To != 5 || msg.Rep != 2 {
		t.Fatalf("replica frame lost its address: %+v", msg)
	}
	if msg.SDO.Seq != 41 || msg.SDO.Key != 0xDEADBEEF || msg.SDO.Hops != 2 {
		t.Errorf("SDO mangled: %+v", msg.SDO)
	}
	if string(msg.SDO.Payload.([]byte)) != "k7" {
		t.Errorf("payload mangled: %v", msg.SDO.Payload)
	}
}

func TestReplicaTargetsRoundTrip(t *testing.T) {
	client, server := pair(t)
	in := ReplicaTargets{Epoch: 12, CPU: [][]float64{{0.3}, {0.25, 0, 0.45}, {}}}
	if err := client.SendReplicaTargets(in); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindReplicaTargets || msg.ReplicaTargets.Epoch != 12 {
		t.Fatalf("replica-targets frame lost: %+v", msg)
	}
	got := msg.ReplicaTargets.CPU
	if len(got) != 3 || len(got[0]) != 1 || len(got[1]) != 3 || len(got[2]) != 0 {
		t.Fatalf("matrix shape mangled: %v", got)
	}
	for j := range in.CPU {
		for r := range in.CPU[j] {
			if got[j][r] != in.CPU[j][r] {
				t.Errorf("CPU[%d][%d] = %g, want %g", j, r, got[j][r], in.CPU[j][r])
			}
		}
	}
}

func TestRecvRejectsBadReplicaFrame(t *testing.T) {
	client, server := pair(t)
	if err := client.send(KindReplica, []byte{0, 0, 0, 1}); err != nil {
		t.Fatal(err) // 4 bytes: PE but no replica slot, no SDO
	}
	if _, err := server.Recv(); err == nil {
		t.Errorf("short replica frame accepted")
	}
}

// TestReplicaTargetsRowCountBoundedByBody: a replica-targets header
// claiming 4,194,304 rows and carrying none must be refused against the
// bytes present, before the row table (96 MiB) is allocated; otherwise a
// few bytes from a peer buy that allocation once per frame. The 12-byte
// body makes the same claim in the header layout without the term.
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
			if _, err := decodeReplicaTargets(body); err == nil {
				t.Fatalf("%s: %d rows accepted from a %d-byte body", name, rows, len(body))
			}
		}
		runtime.ReadMemStats(&m1)
		if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= 4<<10 {
			t.Errorf("%s: refusing a %d-byte body allocates %d bytes, want < 4 KiB", name, len(body), per)
		}
	}
}
