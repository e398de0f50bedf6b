// Package transport carries SDOs and control feedback between processes
// over TCP, letting the live runtime (internal/spc) span machine
// boundaries the way the SPC's data fabric does. The wire protocol is a
// minimal length-delimited binary framing (no gob/JSON on the data path):
//
//	frame  := kind(u8) length(u32 BE) body
//	data   := stream(i32) seq(u64) originUnixNanos(i64) hops(i32)
//	          trace(u64) key(u64) payloadLen(u32) payload
//	ctrl   := pe(i32) rmax(f64 bits)
//	hello  := version(u8)
//	batch  := count(u32) { kind(u8) mlen(u32) member } × count
//	hbeat  := node(i32) seq(u64)
//	tgt    := term(u64) epoch(u64) count(u32) cpu(f64 bits) × count
//	rep    := pe(i32) replica(i32) data
//	rtgt   := term(u64) epoch(u64) peCount(u32) { slots(u32) cpu(f64 bits)×slots } × peCount
//	tack   := term(u64) origin(i32) epoch(u64)
//
// trace is the observability trace ID (0 = unsampled): carrying it inside
// the routed frame is what lets a per-SDO trace be stitched across the
// TCP bridge of a partitioned deployment (internal/obs).
//
// Versioning: every process of a deployment runs this same binary, so
// there is one protocol version and no feature negotiation. A hello
// carrying any other version is a decode error: Recv returns it, and a
// ResilientConn retires that connection and redials, so a mismatched
// peer is refused rather than half-understood. The hello is optional on
// a raw Conn; Recv consumes it internally — callers never see it.
//
// Payloads must be []byte (or nil) on the wire; richer payloads belong to
// in-process deployments.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"aces/internal/sdo"
)

// Kind discriminates frame types.
type Kind uint8

// Frame kinds.
const (
	KindData Kind = iota + 1
	KindFeedback
	// KindRouted is a data frame prefixed with a destination PE, used by
	// partitioned live-runtime deployments (spc.RemoteLink) to route SDOs
	// across process boundaries.
	KindRouted
	// KindBatch carries N data/routed members in one frame: one header,
	// one flush, one syscall for a whole outbox burst. Members are
	// length-delimited sub-frames; feedback never rides a batch (the
	// control path keeps its own frames so advertisements stay sub-Δt).
	KindBatch
	// KindHello is the version announcement a peer sends first on a new
	// connection. Recv handles it internally.
	KindHello
	// KindHeartbeat is the liveness beacon of the health subsystem: the
	// sending process asserts that node Node is alive. It rides the
	// control path (never batched, like feedback).
	KindHeartbeat
	// KindTargets carries a (term, epoch)-numbered tier-1 CPU target
	// vector (retargeting, paper §V-B: the optimizer re-runs periodically
	// and the new c̄_j must reach every node). It rides the control path
	// (never batched); receivers reject anything not ordered after the
	// applied set, so duplicated or reordered target frames are harmless
	// and a deposed controller's frames are fenced.
	KindTargets
	// KindReplica is a routed data frame addressed to a specific replica
	// of a PE (elastic parallelism): the SENDING process picks the replica
	// by key-hash so per-key affinity survives the process boundary.
	KindReplica
	// KindReplicaTargets carries a (term, epoch)-numbered tier-1 target
	// set with per-replica-slot placement — the elastic superset of
	// KindTargets. Control path (never batched), same ordering rule.
	KindReplicaTargets
	// KindTargetAck flows UP the dissemination tree of the hierarchical
	// control plane: a node that applied (or relayed) a target set reports
	// {origin node, term, epoch} to its parent, which forwards it
	// unchanged toward the root. The root uses the per-origin acked epoch
	// to expose dissemination lag (retarget_epoch_lag). Control path,
	// never batched.
	KindTargetAck
)

// protocolVersion is the only version this binary speaks. Version 3
// carries the controller term on every target and ack frame and drops
// the feature bits of version 2's hello.
const protocolVersion = 3

// FeatureBatch is ignored: version 3 has no feature bits. It is kept,
// with SendHello's parameter, only because bench/probes.go compiles
// against it.
const FeatureBatch uint64 = 1 << 0

// Feedback is a control-plane advertisement: PE j accepts at most RMax
// SDOs per control tick.
type Feedback struct {
	PE   int32
	RMax float64
}

// Heartbeat is a liveness beacon: the sending process asserts node Node
// is alive. Seq increments per beacon so receivers can spot reordering
// or duplication if they care; the failure detector only needs arrival.
type Heartbeat struct {
	Node int32
	Seq  uint64
}

// Targets is an epoch-numbered tier-1 CPU target vector: CPU[j] is the
// new c̄_j for PE j (the vector always spans the whole topology; nodes
// apply the entries for their local PEs). Target sets are totally
// ordered per deployment by the lexicographic (Term, Epoch) pair — a
// receiver holding (t, e) ignores any frame ordered at or below it,
// which makes redelivery and reordering harmless and fences frames from
// deposed controllers. Term is 0 until a controller failover bumps it.
type Targets struct {
	Term  uint64
	Epoch uint64
	CPU   []float64
}

// ReplicaTargets is the elastic target set: CPU[j][r] is the new c̄ of
// replica slot r of PE j (slot 0 is the primary, so collapsing each row
// to its sum recovers a Targets vector). (Term, Epoch) ordering matches
// Targets.
type ReplicaTargets struct {
	Term  uint64
	Epoch uint64
	CPU   [][]float64
}

// TargetAck reports, up the dissemination tree, that node Origin has
// applied targets through (Term, Epoch). Relaying parents forward it
// unchanged, so the root sees every descendant's applied epoch. Term is
// informational (epochs stay globally monotone across failovers).
type TargetAck struct {
	Origin int32
	Term   uint64
	Epoch  uint64
}

// Message is a decoded frame: exactly one of SDO/Feedback/Heartbeat/
// Targets is meaningful per Kind; To is set for routed frames. Batch
// frames are decoded into their members and hellos are consumed, so Recv
// never yields KindBatch or KindHello.
type Message struct {
	Kind           Kind
	SDO            sdo.SDO
	Feedback       Feedback
	Heartbeat      Heartbeat
	Targets        Targets
	ReplicaTargets ReplicaTargets
	TargetAck      TargetAck
	// To is the destination PE of a KindRouted or KindReplica frame.
	To sdo.PEID
	// Rep is the destination replica slot of a KindReplica frame.
	Rep int32
}

// maxFrame bounds a frame body; anything larger is a protocol error, not a
// legitimate SDO.
const maxFrame = 16 << 20

// maxBatchMembers bounds the member count of one batch frame; a count
// beyond it cannot be legitimate (the frame body would exceed maxFrame
// anyway for any non-empty member) and is rejected before allocation.
const maxBatchMembers = 4096

// bufPool recycles frame-body buffers across encodes and receives, so the
// steady-state data path performs no per-frame heap allocation. Buffers
// are stored by pointer (storing slices directly would allocate a header
// on every Put).
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// poolBufMaxCap is the largest buffer returned to the pool; one-off jumbo
// frames must not pin megabytes inside it.
const poolBufMaxCap = 256 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > poolBufMaxCap {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// Conn is a framed connection. Writes are internally serialized, so one
// Conn may be shared by multiple sender goroutines; Recv must be called
// from a single goroutine.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader

	wmu sync.Mutex
	w   *bufio.Writer
	// hdr is scratch for frame and batch-member headers (guarded by wmu).
	// A stack-local array would escape into the bufio.Write interface call
	// and cost one heap allocation per frame.
	hdr [16]byte
	// vhdr and vbufs are the gathered-write scratch for large batches
	// (guarded by wmu): vhdr backs the frame and member headers, vbufs is
	// the iovec list handed to net.Buffers. Both are reused across
	// batches, so the steady-state writev path allocates nothing (the
	// runtime caches the kernel iovec array on the connection's poll.FD).
	// vsend is the consumable slice handed to WriteTo — WriteTo advances
	// it in place, so it must be a separate header from vbufs (whose
	// backing array is the retained builder), and it must live on the
	// Conn: taking the address of a stack-local net.Buffers escapes into
	// the writeBuffers interface call and costs one allocation per batch.
	vhdr  []byte
	vbufs net.Buffers
	vsend net.Buffers

	// pending holds decoded batch members not yet returned by Recv
	// (Recv-goroutine-owned, no lock needed).
	pending  []staged
	pendHead int
	// rhdr is Recv's frame-header scratch (Recv-goroutine-owned). Like hdr
	// on the write side, a stack-local array would escape into the
	// io.ReadFull interface call and cost one heap allocation per frame.
	rhdr [5]byte
}

// NewConn wraps a net.Conn with framing.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, r: bufio.NewReaderSize(raw, 64<<10), w: bufio.NewWriterSize(raw, 64<<10)}
}

// Dial connects to a framed endpoint.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(raw), nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SetWriteDeadline bounds all future writes on the connection. A stalled
// peer (full TCP window) then fails the write with a timeout instead of
// blocking the sender forever; ResilientConn relies on this to keep its
// writer goroutine live across peer stalls.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// SetReadDeadline bounds all future reads on the connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SendHello announces this endpoint's protocol version; a peer speaking
// another version refuses the connection. features is ignored (version 3
// has no feature bits); the parameter is kept only because
// bench/probes.go compiles against it.
func (c *Conn) SendHello(features uint64) error {
	return c.send(KindHello, []byte{protocolVersion})
}

// SendSDO writes one data frame. The payload must be nil or []byte.
func (c *Conn) SendSDO(s sdo.SDO) error {
	bp := getBuf()
	defer putBuf(bp)
	body, err := encodeSDO((*bp)[:0], s)
	if err != nil {
		return err
	}
	*bp = body[:0]
	return c.send(KindData, body)
}

// encodeSDO appends the data-frame body for s to dst and returns the
// extended slice (append-style, so callers can reuse pooled buffers).
func encodeSDO(dst []byte, s sdo.SDO) ([]byte, error) {
	var payload []byte
	switch p := s.Payload.(type) {
	case nil:
	case []byte:
		payload = p
	default:
		return nil, fmt.Errorf("transport: payload must be []byte or nil, got %T", s.Payload)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.Stream))
	dst = binary.BigEndian.AppendUint64(dst, s.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.Origin.UnixNano()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.Hops))
	dst = binary.BigEndian.AppendUint64(dst, s.Trace)
	dst = binary.BigEndian.AppendUint64(dst, s.Key)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return dst, nil
}

// SendRouted writes a data frame addressed to a specific PE in a peer
// process.
func (c *Conn) SendRouted(to sdo.PEID, s sdo.SDO) error {
	bp := getBuf()
	defer putBuf(bp)
	body, err := encodeRouted((*bp)[:0], to, s)
	if err != nil {
		return err
	}
	*bp = body[:0]
	return c.send(KindRouted, body)
}

// encodeRouted appends the routed-frame body (destination PE + SDO) to dst.
func encodeRouted(dst []byte, to sdo.PEID, s sdo.SDO) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(to))
	return encodeSDO(dst, s)
}

// SendReplica writes a data frame addressed to a specific replica slot of
// a PE in a peer process.
func (c *Conn) SendReplica(to sdo.PEID, rep int32, s sdo.SDO) error {
	bp := getBuf()
	defer putBuf(bp)
	body, err := encodeReplica((*bp)[:0], to, rep, s)
	if err != nil {
		return err
	}
	*bp = body[:0]
	return c.send(KindReplica, body)
}

// encodeReplica appends the replica-frame body (PE + replica slot + SDO).
func encodeReplica(dst []byte, to sdo.PEID, rep int32, s sdo.SDO) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(to))
	dst = binary.BigEndian.AppendUint32(dst, uint32(rep))
	return encodeSDO(dst, s)
}

// SendFeedback writes one control frame.
func (c *Conn) SendFeedback(f Feedback) error {
	bp := getBuf()
	defer putBuf(bp)
	body := encodeFeedback((*bp)[:0], f)
	*bp = body[:0]
	return c.send(KindFeedback, body)
}

// encodeFeedback appends the feedback-frame body to dst.
func encodeFeedback(dst []byte, f Feedback) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.PE))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.RMax))
	return dst
}

// SendHeartbeat writes one liveness beacon. Like feedback, heartbeats
// keep their own frames (never batched): membership judgement rides the
// control path's latency, not the data path's.
func (c *Conn) SendHeartbeat(hb Heartbeat) error {
	bp := getBuf()
	defer putBuf(bp)
	body := encodeHeartbeat((*bp)[:0], hb)
	*bp = body[:0]
	return c.send(KindHeartbeat, body)
}

// encodeHeartbeat appends the heartbeat-frame body to dst.
func encodeHeartbeat(dst []byte, hb Heartbeat) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(hb.Node))
	dst = binary.BigEndian.AppendUint64(dst, hb.Seq)
	return dst
}

// SendTargets writes one (term, epoch)-numbered target vector. Like
// feedback and heartbeats, target frames keep their own frames (never
// batched): a retarget must not wait behind a data burst.
func (c *Conn) SendTargets(t Targets) error {
	bp := getBuf()
	defer putBuf(bp)
	body := encodeTargets((*bp)[:0], t)
	*bp = body[:0]
	return c.send(KindTargets, body)
}

// encodeTargets appends the targets-frame body to dst:
// term(u64) epoch(u64) count(u32) cpu(f64 bits)×count.
func encodeTargets(dst []byte, t Targets) []byte {
	dst = binary.BigEndian.AppendUint64(dst, t.Term)
	dst = binary.BigEndian.AppendUint64(dst, t.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.CPU)))
	for _, c := range t.CPU {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

// decodeTargets decodes a targets-frame body. The CPU vector is copied
// out, so the caller may recycle the buffer immediately.
func decodeTargets(body []byte) (Targets, error) {
	if len(body) < 20 {
		return Targets{}, fmt.Errorf("transport: short targets frame (%d bytes)", len(body))
	}
	t := Targets{Term: binary.BigEndian.Uint64(body[0:8]), Epoch: binary.BigEndian.Uint64(body[8:16])}
	count := binary.BigEndian.Uint32(body[16:20])
	if int(count)*8 != len(body)-20 {
		return Targets{}, fmt.Errorf("transport: targets count %d disagrees with frame size", count)
	}
	if count > 0 {
		t.CPU = make([]float64, count)
		for i := range t.CPU {
			t.CPU[i] = math.Float64frombits(binary.BigEndian.Uint64(body[20+8*i:]))
		}
	}
	return t, nil
}

// SendReplicaTargets writes one (term, epoch)-numbered per-replica
// target set. Control-path contract matches SendTargets: own frame,
// never batched.
func (c *Conn) SendReplicaTargets(rt ReplicaTargets) error {
	bp := getBuf()
	defer putBuf(bp)
	body := encodeReplicaTargets((*bp)[:0], rt)
	*bp = body[:0]
	return c.send(KindReplicaTargets, body)
}

// encodeReplicaTargets appends the replica-targets body: term(u64)
// epoch(u64) peCount(u32) { slotCount(u32) cpu(f64 bits)×slotCount } × peCount.
func encodeReplicaTargets(dst []byte, rt ReplicaTargets) []byte {
	dst = binary.BigEndian.AppendUint64(dst, rt.Term)
	dst = binary.BigEndian.AppendUint64(dst, rt.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rt.CPU)))
	for _, row := range rt.CPU {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(row)))
		for _, c := range row {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c))
		}
	}
	return dst
}

// decodeReplicaTargets decodes a replica-targets body. Rows are copied
// out, so the caller may recycle the buffer immediately.
func decodeReplicaTargets(body []byte) (ReplicaTargets, error) {
	if len(body) < 20 {
		return ReplicaTargets{}, fmt.Errorf("transport: short replica-targets frame (%d bytes)", len(body))
	}
	rt := ReplicaTargets{Term: binary.BigEndian.Uint64(body[0:8]), Epoch: binary.BigEndian.Uint64(body[8:16])}
	peCount := binary.BigEndian.Uint32(body[16:20])
	rest := body[20:]
	// Every row carries at least its 4-byte slot count, so a count the
	// body cannot hold is refused before the row table is allocated: a
	// few bytes must not buy a peer a 96 MiB allocation.
	if uint64(peCount) > uint64(len(rest)/4) {
		return ReplicaTargets{}, fmt.Errorf("transport: replica-targets PE count %d out of range", peCount)
	}
	rt.CPU = make([][]float64, peCount)
	for j := uint32(0); j < peCount; j++ {
		if len(rest) < 4 {
			return ReplicaTargets{}, fmt.Errorf("transport: truncated replica-targets row %d", j)
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		rest = rest[4:]
		if n > maxBatchMembers || int(n)*8 > len(rest) {
			return ReplicaTargets{}, fmt.Errorf("transport: replica-targets row %d slot count %d out of range", j, n)
		}
		row := make([]float64, n)
		for r := range row {
			row[r] = math.Float64frombits(binary.BigEndian.Uint64(rest[8*r:]))
		}
		rt.CPU[j] = row
		rest = rest[8*n:]
	}
	if len(rest) != 0 {
		return ReplicaTargets{}, fmt.Errorf("transport: %d trailing bytes after replica-targets rows", len(rest))
	}
	return rt, nil
}

// SendTargetAck writes one upward ack frame. Control-path contract
// matches SendTargets: own frame, never batched.
func (c *Conn) SendTargetAck(a TargetAck) error {
	bp := getBuf()
	defer putBuf(bp)
	body := encodeTargetAck((*bp)[:0], a)
	*bp = body[:0]
	return c.send(KindTargetAck, body)
}

// encodeTargetAck appends the ack-frame body: term(u64) origin(i32)
// epoch(u64).
func encodeTargetAck(dst []byte, a TargetAck) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.Term)
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Origin))
	dst = binary.BigEndian.AppendUint64(dst, a.Epoch)
	return dst
}

// send writes one frame and flushes: the contract for direct Conn users
// (including the control path, whose feedback frames must reach the peer
// sub-Δt, not sit in a 64 KiB buffer). Writers that know more work is
// queued use writeFrame/Flush to coalesce syscalls.
func (c *Conn) send(k Kind, body []byte) error {
	return c.writeFrame(k, body, true)
}

// writeFrame writes one frame, flushing only when flush is set. A caller
// with queued work passes flush=false and calls Flush (or lets the last
// frame flush) when the burst drains — this is what fixes the historic
// one-syscall-per-frame behaviour of the uplink writer.
func (c *Conn) writeFrame(k Kind, body []byte, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:5]
	hdr[0] = byte(k)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(body)))
	if _, err := c.w.Write(hdr); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := c.w.Write(body); err != nil {
		return fmt.Errorf("transport: write body: %w", err)
	}
	if flush {
		return c.w.Flush()
	}
	return nil
}

// Flush pushes any buffered frames to the wire.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.Flush()
}

// vecMinBytes is the batch size at which sendBatch switches from copying
// members through the bufio writer to a zero-copy gathered write
// (net.Buffers → writev). Below it, one memcpy into the 64 KiB write
// buffer is cheaper than marshalling an iovec per member and costs no
// extra syscall (the burst coalesces several batches into one flush);
// above it, the copy dominates — member payloads go to the kernel
// straight from their pooled encode buffers, one syscall per batch
// regardless of size.
const vecMinBytes = 8 << 10

// vecMinSeg additionally requires members to average at least this many
// bytes before the gathered path engages. The kernel walks two iovecs
// per member, so for tiny frames (header-only SDOs are 36 bytes) the
// per-iovec bookkeeping exceeds the memcpy it saves — measured ~1.5×
// slower than the copy path at 256×41 B — while for payload-carrying
// members the copy is the dominant cost and gathering wins.
const vecMinSeg = 256

// sendBatch writes the given pre-encoded members (kind + body pairs) as
// one KindBatch frame: a single header and, when flush is set, a single
// syscall for the whole burst. Members must be KindData or KindRouted.
// Large batches take the gathered-write path instead (see vecMinBytes).
func (c *Conn) sendBatch(members []outFrame, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	total := 4
	for i := range members {
		total += 5 + len(members[i].body)
	}
	if total > maxFrame {
		return fmt.Errorf("transport: batch of %d bytes exceeds frame limit", total)
	}
	if total >= vecMinBytes && total >= len(members)*vecMinSeg {
		return c.sendBatchVec(members, total)
	}
	hdr := c.hdr[:9] // frame header (5) + member count (4)
	hdr[0] = byte(KindBatch)
	binary.BigEndian.PutUint32(hdr[1:5], uint32(total))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(members)))
	if _, err := c.w.Write(hdr); err != nil {
		return fmt.Errorf("transport: write batch header: %w", err)
	}
	for i := range members {
		mh := c.hdr[:5]
		mh[0] = byte(members[i].kind)
		binary.BigEndian.PutUint32(mh[1:], uint32(len(members[i].body)))
		if _, err := c.w.Write(mh); err != nil {
			return fmt.Errorf("transport: write batch member header: %w", err)
		}
		if _, err := c.w.Write(members[i].body); err != nil {
			return fmt.Errorf("transport: write batch member: %w", err)
		}
	}
	if flush {
		return c.w.Flush()
	}
	return nil
}

// sendBatchVec writes one KindBatch frame as a gathered write: the frame
// header, every member header (all backed by the reusable vhdr scratch)
// and every member body go to the kernel in a single writev, with no
// copy into the bufio writer. Called with wmu held. The bufio writer is
// flushed first so frame order on the wire is preserved; the gathered
// write itself always reaches the wire, so the caller's flush intent is
// trivially satisfied.
func (c *Conn) sendBatchVec(members []outFrame, total int) error {
	need := 9 + 5*len(members)
	if cap(c.vhdr) < need {
		c.vhdr = make([]byte, need)
	}
	vh := c.vhdr[:need]
	vh[0] = byte(KindBatch)
	binary.BigEndian.PutUint32(vh[1:5], uint32(total))
	binary.BigEndian.PutUint32(vh[5:9], uint32(len(members)))
	if cap(c.vbufs) < 1+2*len(members) {
		c.vbufs = make(net.Buffers, 0, 1+2*len(members))
	}
	bufs := append(c.vbufs[:0], vh[:9])
	off := 9
	for i := range members {
		mh := vh[off : off+5]
		off += 5
		mh[0] = byte(members[i].kind)
		binary.BigEndian.PutUint32(mh[1:], uint32(len(members[i].body)))
		bufs = append(bufs, mh, members[i].body)
	}
	c.vbufs = bufs
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("transport: flush before gathered batch: %w", err)
	}
	c.vsend = bufs
	_, err := c.vsend.WriteTo(c.raw)
	c.vsend = nil
	// WriteTo consumed the vsend header; clear the retained builder so
	// this scratch does not keep the members' pooled buffers alive (the
	// caller recycles them as soon as we return).
	for i := range c.vbufs {
		c.vbufs[i] = nil
	}
	c.vbufs = c.vbufs[:0]
	if err != nil {
		return fmt.Errorf("transport: write gathered batch: %w", err)
	}
	return nil
}

// Recv reads the next frame. It returns io.EOF on orderly shutdown. Hello
// frames are consumed internally (a version mismatch is an error); batch
// frames are split and their members returned one per call.
func (c *Conn) Recv() (Message, error) {
	for {
		if c.pendHead < len(c.pending) {
			m := &c.pending[c.pendHead]
			c.pendHead++
			msg := m.message()
			m.sdo.Payload = nil // release payload reference
			return msg, nil
		}
		hdr := c.rhdr[:]
		if _, err := io.ReadFull(c.r, hdr); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Message{}, io.EOF
			}
			return Message{}, fmt.Errorf("transport: read header: %w", err)
		}
		kind := Kind(hdr[0])
		n := binary.BigEndian.Uint32(hdr[1:])
		if n > maxFrame {
			return Message{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
		}
		bp := getBuf()
		if cap(*bp) < int(n) {
			*bp = make([]byte, n)
		}
		body := (*bp)[:n]
		if _, err := io.ReadFull(c.r, body); err != nil {
			putBuf(bp)
			return Message{}, fmt.Errorf("transport: read body: %w", err)
		}
		msg, handled, err := c.decodeFrame(kind, body)
		*bp = body[:0]
		putBuf(bp)
		if err != nil {
			return Message{}, err
		}
		if handled {
			continue // hello or batch: nothing (yet) to hand the caller
		}
		return msg, nil
	}
}

// decodeFrame decodes one frame body. handled=true means the frame was
// consumed internally (hello checked, batch split into c.pending) and
// Recv should continue with the next frame or pending member. The body is
// never retained: payloads are copied into the frame's slab, so the caller
// can pool it.
func (c *Conn) decodeFrame(kind Kind, body []byte) (msg Message, handled bool, err error) {
	switch kind {
	case KindData, KindRouted, KindReplica:
		plen, err := checkData(kind, body)
		if err != nil {
			return Message{}, false, err
		}
		slab := make([]byte, plen) // a slab of one
		var m staged
		decodeData(&m, kind, body, &slab)
		return m.message(), false, nil
	case KindFeedback:
		if len(body) != 12 {
			return Message{}, false, fmt.Errorf("transport: bad feedback frame (%d bytes)", len(body))
		}
		return Message{Kind: KindFeedback, Feedback: Feedback{
			PE:   int32(binary.BigEndian.Uint32(body[0:4])),
			RMax: math.Float64frombits(binary.BigEndian.Uint64(body[4:12])),
		}}, false, nil
	case KindHeartbeat:
		if len(body) != 12 {
			return Message{}, false, fmt.Errorf("transport: bad heartbeat frame (%d bytes)", len(body))
		}
		return Message{Kind: KindHeartbeat, Heartbeat: Heartbeat{
			Node: int32(binary.BigEndian.Uint32(body[0:4])),
			Seq:  binary.BigEndian.Uint64(body[4:12]),
		}}, false, nil
	case KindTargets:
		t, err := decodeTargets(body)
		if err != nil {
			return Message{}, false, err
		}
		return Message{Kind: KindTargets, Targets: t}, false, nil
	case KindReplicaTargets:
		rt, err := decodeReplicaTargets(body)
		if err != nil {
			return Message{}, false, err
		}
		return Message{Kind: KindReplicaTargets, ReplicaTargets: rt}, false, nil
	case KindTargetAck:
		if len(body) != 20 {
			return Message{}, false, fmt.Errorf("transport: bad target-ack frame (%d bytes)", len(body))
		}
		return Message{Kind: KindTargetAck, TargetAck: TargetAck{
			Term:   binary.BigEndian.Uint64(body[0:8]),
			Origin: int32(binary.BigEndian.Uint32(body[8:12])),
			Epoch:  binary.BigEndian.Uint64(body[12:20]),
		}}, false, nil
	case KindBatch:
		if err := c.decodeBatch(body); err != nil {
			return Message{}, false, err
		}
		return Message{}, true, nil
	case KindHello:
		if len(body) > 0 && body[0] != protocolVersion {
			return Message{}, false, fmt.Errorf("transport: peer speaks protocol version %d, this binary %d", body[0], protocolVersion)
		}
		if len(body) != 1 {
			return Message{}, false, fmt.Errorf("transport: bad hello frame (%d bytes)", len(body))
		}
		return Message{}, true, nil
	default:
		return Message{}, false, fmt.Errorf("transport: unknown frame kind %d", kind)
	}
}

// slabCap bounds the slab a batch frame's payloads are copied into: one
// payload a PE retains pins at most this much, not the whole batch. A
// payload above the cap gets an allocation of its own.
const slabCap = 32 << 10

// staged is a decoded batch member awaiting Recv: the fields of Message a
// data frame can set (112 bytes against Message's 248).
type staged struct {
	kind Kind
	rep  int32
	to   sdo.PEID
	sdo  sdo.SDO
}

func (m *staged) message() Message {
	return Message{Kind: m.kind, SDO: m.sdo, To: m.to, Rep: m.rep}
}

// decodeBatch splits a batch body into c.pending. Members may only be
// data, routed or replica frames; anything else (nested batches, control
// frames) is a protocol error. The whole body is validated before any
// member is decoded, so a rejected batch stages and allocates nothing.
func (c *Conn) decodeBatch(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("transport: short batch frame (%d bytes)", len(body))
	}
	count := binary.BigEndian.Uint32(body[0:4])
	if count == 0 || count > maxBatchMembers {
		return fmt.Errorf("transport: batch member count %d out of range", count)
	}
	rest := body[4:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 5 {
			return fmt.Errorf("transport: truncated batch member %d", i)
		}
		k := Kind(rest[0])
		mlen := binary.BigEndian.Uint32(rest[1:5])
		if mlen > uint32(len(rest)-5) {
			return fmt.Errorf("transport: batch member %d overruns frame", i)
		}
		if !batchable(k) {
			return fmt.Errorf("transport: batch member %d has non-data kind %d", i, k)
		}
		if _, err := checkData(k, rest[5:5+mlen]); err != nil {
			return err
		}
		rest = rest[5+mlen:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after batch members", len(rest))
	}
	if cap(c.pending) < int(count) {
		c.pending = make([]staged, count)
	}
	c.pending = c.pending[:count]
	c.pendHead = 0
	var slab []byte
	rest = body[4:]
	for i := range c.pending {
		k := Kind(rest[0])
		mlen := int(binary.BigEndian.Uint32(rest[1:5]))
		mbody := rest[5 : 5+mlen]
		rest = rest[5+mlen:]
		if plen := mlen - dataPrefix(k) - sdoHeaderLen; plen > len(slab) {
			slab = make([]byte, slabSpan(plen, rest))
		}
		decodeData(&c.pending[i], k, mbody, &slab)
	}
	return nil
}

// slabSpan sizes the slab opened by an n-byte payload: that payload plus
// those of the members following in rest (already validated) for as long
// as the total stays within slabCap. Slabs are therefore filled exactly.
func slabSpan(n int, rest []byte) int {
	for len(rest) > 0 {
		mlen := int(binary.BigEndian.Uint32(rest[1:5]))
		plen := mlen - dataPrefix(Kind(rest[0])) - sdoHeaderLen
		if n+plen > slabCap {
			break
		}
		n += plen
		rest = rest[5+mlen:]
	}
	return n
}

// sdoHeaderLen is the fixed prefix of a data-frame body: stream(4) +
// seq(8) + origin(8) + hops(4) + trace(8) + key(8) + payloadLen(4). The
// partition key rides every data frame so a receiver can re-route the SDO
// among its local replicas with the same key affinity the sender used.
const sdoHeaderLen = 44

// dataPrefix is the length of the routing prefix ahead of the SDO header
// in a data, routed (destination PE) or replica (PE + slot) body.
func dataPrefix(k Kind) int {
	switch k {
	case KindRouted:
		return 4
	case KindReplica:
		return 8
	}
	return 0
}

// checkData validates a data, routed or replica body and returns its
// payload length. It allocates nothing.
func checkData(k Kind, body []byte) (int, error) {
	if prefix := dataPrefix(k); len(body) >= prefix {
		body = body[prefix:]
	} else if k == KindRouted {
		return 0, fmt.Errorf("transport: short routed frame (%d bytes)", len(body))
	} else {
		return 0, fmt.Errorf("transport: short replica frame (%d bytes)", len(body))
	}
	if len(body) < sdoHeaderLen {
		return 0, fmt.Errorf("transport: short data frame (%d bytes)", len(body))
	}
	plen := binary.BigEndian.Uint32(body[40:44])
	if int(plen) != len(body)-sdoHeaderLen {
		return 0, fmt.Errorf("transport: payload length %d disagrees with frame size", plen)
	}
	return int(plen), nil
}

// decodeData decodes into m a body checkData accepted. The payload (if
// any) is copied into the front of *slab, which must have room for it, so
// the caller may recycle body immediately; it is handed out capacity-
// clipped, so an append on it cannot reach the slab's next payload.
func decodeData(m *staged, k Kind, body []byte, slab *[]byte) {
	*m = staged{kind: k}
	if k != KindData {
		m.to = sdo.PEID(int32(binary.BigEndian.Uint32(body[0:4])))
	}
	if k == KindReplica {
		m.rep = int32(binary.BigEndian.Uint32(body[4:8]))
	}
	body = body[dataPrefix(k):]
	m.sdo = sdo.SDO{
		Stream: sdo.StreamID(int32(binary.BigEndian.Uint32(body[0:4]))),
		Seq:    binary.BigEndian.Uint64(body[4:12]),
		Origin: time.Unix(0, int64(binary.BigEndian.Uint64(body[12:20]))),
		Hops:   int(int32(binary.BigEndian.Uint32(body[20:24]))),
		Trace:  binary.BigEndian.Uint64(body[24:32]),
		Key:    binary.BigEndian.Uint64(body[32:40]),
		Bytes:  1,
	}
	if p := body[sdoHeaderLen:]; len(p) > 0 {
		v := (*slab)[:len(p):len(p)]
		*slab = (*slab)[len(p):]
		copy(v, p)
		m.sdo.Payload, m.sdo.Bytes = v, len(p)
	}
}

// Listener accepts framed connections.
type Listener struct {
	l net.Listener
}

// Listen binds a TCP listener; addr ":0" picks a free port.
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	raw, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewConn(raw), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }
