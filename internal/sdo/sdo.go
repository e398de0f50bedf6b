// Package sdo defines the Stream Data Object (SDO), the fundamental
// information unit flowing through a distributed stream processing system,
// along with stream identifiers and lightweight timestamp plumbing used for
// end-to-end latency accounting.
//
// The paper (§I) defines a data stream as "a sequence of Stream Data Objects
// (SDOs), the fundamental information unit of the data stream". SDOs here
// carry an origin timestamp (set when the SDO enters the system), a byte
// size, and an opaque payload. The control plane never inspects payloads.
package sdo

import (
	"fmt"
	"time"
)

// StreamID identifies a stream. External input streams of the system are
// numbered s_0 .. s_{S-1} (paper §V-A); internal streams are derived from
// the producing PE.
type StreamID int32

// PEID identifies a processing element p_0 .. p_{P-1}.
type PEID int32

// NodeID identifies a processing node n_0 .. n_{N-1}.
type NodeID int32

// NilPE is the sentinel for "no PE" (e.g. the producer of an external
// stream, or the consumer beyond an egress PE).
const NilPE PEID = -1

// NilNode is the sentinel for "no node".
const NilNode NodeID = -1

// SDO is a stream data object. SDOs are treated as values by the data
// plane: forwarding an SDO to multiple downstream PEs copies the struct
// (cheap — the payload is shared, never mutated).
type SDO struct {
	// Stream is the stream this SDO currently belongs to. An SDO that is
	// transformed by a PE is re-stamped with the PE's output stream.
	Stream StreamID
	// Seq is a per-stream sequence number assigned by the producer.
	Seq uint64
	// Origin is the time the ancestral input SDO entered the system.
	// Derived SDOs inherit the origin of the input SDO that produced them,
	// so egress timestamps measure true end-to-end latency. A PE's input
	// buffer keeps it as the same instant: Equal to the one pushed, with
	// a monotonic reading if and only if it had one (so now.Sub(Origin)
	// reads the same) and the same wall reading; a zero Origin stays
	// zero, and its Location is dropped, as on the wire.
	Origin time.Time
	// Bytes is the size of the SDO used for rate accounting. The paper
	// measures rates in bytes (§V-A); the simulator uses 1-byte SDOs so
	// that SDO counts and byte counts coincide, matching the paper's
	// SDO-denominated buffer sizes. A PE's input buffer keeps it exactly
	// in [-2^51, 2^51).
	Bytes int
	// Hops counts the number of PEs that have processed ancestors of this
	// SDO. Used for wasted-work accounting: dropping an SDO with Hops > 0
	// discards partially processed data. A PE's input buffer keeps it as
	// an int32, as the wire carries it.
	Hops int
	// Trace is the observability trace ID: nonzero when this SDO's
	// lineage was sampled at ingress (internal/obs). Derived SDOs inherit
	// it; the transport carries it across partition boundaries so a trace
	// can be stitched over the whole DAG. Zero = unsampled, and every
	// instrumentation hook short-circuits on that.
	Trace uint64
	// TraceEnq is the virtual time this SDO entered its current hop's
	// input buffer (observability only; meaningful only when Trace != 0).
	// It is per-hop state: the receiving process re-stamps it on arrival,
	// and it does not travel on the wire.
	TraceEnq float64
	// Key is the partition key for replica routing: SDOs with equal keys
	// are routed to the same replica of an elastic PE, so stateful PEs keep
	// per-key affinity across fan-out. Zero means unkeyed; unkeyed SDOs are
	// spread per-SDO by (Stream, Seq). Key is in-process routing state —
	// the sender decides the replica, so it does not travel on the wire.
	Key uint64
	// Payload is opaque application data. The control plane and both
	// substrates never inspect it. A payload received from the wire is a
	// capacity-clipped []byte view into a slab shared with its frame
	// neighbours: it must not be written, and keeping it pins at most its
	// slab (32 KiB of payloads plus their slice headers), never the frame.
	Payload any
}

// Derive returns an output SDO produced from s by a PE writing to stream
// out: the origin is inherited, the hop count incremented, and the sequence
// number replaced by seq. The partition key is inherited too, so a keyed
// lineage keeps replica affinity across every hop of the DAG.
func (s SDO) Derive(out StreamID, seq uint64, bytes int) SDO {
	return SDO{
		Stream:  out,
		Seq:     seq,
		Origin:  s.Origin,
		Bytes:   bytes,
		Hops:    s.Hops + 1,
		Trace:   s.Trace,
		Key:     s.Key,
		Payload: s.Payload,
	}
}

// String implements fmt.Stringer for debugging.
func (s SDO) String() string {
	return fmt.Sprintf("sdo{stream=%d seq=%d hops=%d bytes=%d}", s.Stream, s.Seq, s.Hops, s.Bytes)
}
