package transport

import (
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

func TestRecvRejectsBadReplicaFrame(t *testing.T) {
	client, server := pair(t)
	if err := client.writeFrame(KindReplica, []byte{0, 0, 0, 1}, true); err != nil {
		t.Fatal(err) // 4 bytes: PE but no replica slot, no SDO
	}
	if _, err := server.Recv(); err == nil {
		t.Errorf("short replica frame accepted")
	}
}
