package transport

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aces/internal/ring"
	"aces/internal/sdo"
)

// Sentinel errors returned by ResilientConn send methods. Both are
// immediate: no send ever blocks on transport I/O.
var (
	// ErrOutboxFull reports that the bounded outbox had no room; the frame
	// was dropped and counted. Senders treat this exactly like an overflow
	// of a local PE buffer (in-flight loss).
	ErrOutboxFull = errors.New("transport: outbox full")
	// ErrLinkClosed reports a send on a closed ResilientConn.
	ErrLinkClosed = errors.New("transport: link closed")
)

// DialFunc produces a fresh connection to the peer. On the dialing side
// this wraps Dial; on the accepting side it wraps Listener.Accept, so a
// severed peer re-establishing the TCP session is transparent to both.
type DialFunc func() (*Conn, error)

// ResilientOptions tunes a ResilientConn. The zero value picks usable
// defaults (batching off).
type ResilientOptions struct {
	// QueueSize bounds the outbox in frames (default 1024). A full outbox
	// drops the newest frame — loss at the boundary instead of back-pressure
	// that would freeze the emit path or the Δt scheduler.
	QueueSize int
	// WriteTimeout bounds each wire write (default 1s). A stalled peer
	// (unread TCP window) fails the write and triggers a reconnect rather
	// than wedging the writer goroutine.
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 50ms, 2s).
	// The actual delay is the current backoff plus up to 50% jitter, so a
	// partition of many links does not reconnect in lockstep.
	BackoffMin, BackoffMax time.Duration
	// BatchMax enables batched framing when > 1: the writer coalesces up
	// to BatchMax queued data/routed/replica frames into one KindBatch
	// wire frame (one header, one flush). Batching is opportunistic — a
	// frame that finds the outbox otherwise empty is written and flushed
	// immediately, so single-SDO latency is unchanged. Default 0 (off).
	BatchMax int
	// BatchLinger, when > 0, lets the writer wait up to this long for
	// additional frames before writing a non-full burst — trading latency
	// for batch fill under light load. Default 0: flush-on-idle only.
	BatchLinger time.Duration
	// OnDrop, when set, is invoked for every frame dropped asynchronously
	// by the writer goroutine (write failure after dequeue). A failed
	// batch write invokes it once per member SDO, not once per wire
	// frame. It is NOT invoked for enqueue-time overflow: those return
	// ErrOutboxFull and the caller accounts the loss synchronously. hops
	// is the SDO's processing depth and trace its observability trace ID
	// (both 0 for feedback frames; trace is 0 for unsampled SDOs), letting
	// the owner record the loss as a terminal trace event.
	OnDrop func(kind Kind, hops int, trace uint64)
}

func (o *ResilientOptions) fillDefaults() {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = 2 * time.Second
		if o.BackoffMax < o.BackoffMin {
			o.BackoffMax = o.BackoffMin
		}
	}
	if o.BatchMax > maxBatchMembers {
		o.BatchMax = maxBatchMembers
	}
}

// maxBatchBytes caps the encoded size of one batch frame well below
// maxFrame, so a burst of jumbo payloads splits into several batches
// instead of tripping the frame limit.
const maxBatchBytes = 1 << 20

// ctlLaneCap bounds the reserved control lane. Control traffic is tiny
// and periodic (feedback, heartbeats, targets, acks), so a small lane
// holds every in-flight control frame; what the bound really buys is
// isolation — a data burst that fills the outbox can no longer crowd a
// retarget or a liveness beacon out of the link.
const ctlLaneCap = 64

// isControlKind reports whether a frame kind rides the control lane.
func isControlKind(k Kind) bool {
	switch k {
	case KindFeedback, KindHeartbeat, KindTargets, KindTargetAck:
		return true
	}
	return false
}

// LinkStats is a point-in-time snapshot of a ResilientConn's counters.
// Frame counts are logical: a batch that carries N SDOs counts N sent
// (or, on a failed write, N dropped) — loss accounting is per member SDO,
// never per wire frame.
type LinkStats struct {
	// FramesSent counts logical frames written to the wire successfully
	// (batch members count individually).
	FramesSent int64
	// FramesDropped counts logical frames lost at this endpoint: outbox
	// overflow, write failures (every member of a failed batch), and
	// frames abandoned at Close.
	FramesDropped int64
	// Reconnects counts successful re-establishments after the first
	// connection.
	Reconnects int64
	// BatchesSent counts KindBatch wire frames written successfully.
	BatchesSent int64
	// BatchedFrames counts logical frames that rode inside batches;
	// BatchedFrames/BatchesSent is the mean batch fill.
	BatchedFrames int64
	// ControlDropped counts control frames (feedback, heartbeats,
	// targets, acks) lost at this endpoint — control
	// lane overflow plus write failures and frames abandoned at Close.
	// Control frames have a reserved lane, so a data flood alone can
	// never grow this counter.
	ControlDropped int64
	// QueueLen and QueueCap describe the outbox at snapshot time.
	QueueLen, QueueCap int
}

// outFrame is one queued wire frame: 24 bytes with one pointer word, so
// an outbox cell (the ring's sequence word plus the frame) is 32 bytes of
// which the collector scans one word. *buf is the encoded body; the
// buffer goes back to the link's free list once the frame leaves the
// outbox (written, dropped or abandoned). hops carries the SDO's
// processing depth (an int32, as on the wire) so asynchronous drops can
// be accounted as in-flight loss; trace carries its observability trace
// ID so they can end the trace too.
type outFrame struct {
	buf   *[]byte
	trace uint64
	hops  int32
	kind  Kind
}

// ResilientConn is a self-healing framed connection: sends enqueue into a
// bounded outbox and never touch the network; a writer goroutine drains
// the outbox in bursts — coalescing data frames into batch frames when
// batching is enabled, and flushing only when the outbox runs dry — a
// manager goroutine (re)establishes the connection with jittered
// exponential backoff whenever the current one fails. Recv transparently
// rides across reconnects and returns only when the conn is closed.
//
// The design target is the paper's §IV "degrades, does not collapse": a
// stalled, severed or absent peer costs the local partition nothing but
// the frames addressed to that peer, which are dropped and counted.
type ResilientConn struct {
	dial DialFunc
	opts ResilientOptions
	// outq is the data outbox: a bounded lock-free ring, multi-producer
	// (every local PE emitter enqueues) single-consumer (only the writer
	// pops). Replacing the old buffered channel shaved two channel
	// operations off every frame on the emit hot path; producers that
	// find the writer parked ring the doorbell instead. It is allocated
	// by the first data frame (dataRing), so a link that only ever
	// carries control frames holds none.
	outq atomic.Pointer[ring.Ring[outFrame]]
	// qmu orders the data ring's allocation against Close: a producer
	// installs the ring under it only while the link is open, and Close
	// raises closed under it, so the ring Close drains is the only one
	// the link will ever have. No send takes it once the ring exists.
	qmu sync.Mutex
	// free is the link's encode-buffer free list: a send pops a buffer
	// to encode into and whoever retires the frame (the writer, a drop,
	// Close) pushes it back. It is a lock-free ring, so a send takes no
	// lock the writer holds, and the collector never empties it (it does
	// empty a sync.Pool, which then costs a fresh buffer per in-flight
	// frame after every cycle). It holds four write bursts — the one on
	// the wire and the three the emitters fill meanwhile; buffers beyond
	// that, or above maxKeptBuf, are left to the collector.
	free *ring.Ring[*[]byte]
	// doorbell wakes the parked writer. Capacity 1: a ring while awake
	// (or while a previous ring is pending) is a no-op.
	doorbell chan struct{}
	// sleeping is the writer's parked flag. The writer raises it before
	// its final poll of both lanes, so a producer that enqueues after
	// that poll is guaranteed to observe it and ring the doorbell —
	// the classic Dekker handshake. In steady state producers pay one
	// atomic load.
	sleeping atomic.Bool
	// ctl is the reserved control lane: feedback, heartbeats, targets
	// and acks enqueue here, and the writer drains it
	// with head-of-burst priority — so an outbox full of SDOs can delay
	// a control frame by at most one write burst, never drop it.
	ctl  chan outFrame
	done chan struct{}

	// mu guards connection replacement (connect, redial, close): cur is
	// written only under it, but read lock-free by the control sends'
	// liveness check (ctlLive), so no send takes mu.
	mu   sync.Mutex
	cond *sync.Cond
	cur  atomic.Pointer[Conn]
	gen  int // bumped on every connect; stale failures are ignored
	// closed is written under both mu and qmu, so either guards a read.
	closed bool
	// rconn and rgen are the connection Recv is reading and its generation
	// (Recv-goroutine-owned): Recv asks current() again only after an error.
	rconn *Conn
	rgen  int

	// wroteOK is set by the writer after any successful wire write and
	// consumed by the manager when choosing the redial delay: only a
	// generation that proved useful earns a backoff reset.
	wroteOK atomic.Bool

	wg sync.WaitGroup

	statsMu    sync.Mutex
	sent       int64
	dropped    int64
	reconnect  int64
	batches    int64
	batched    int64
	ctlDropped int64
}

// NewResilientConn starts the manager and writer goroutines and returns
// immediately; the first connection is established in the background.
func NewResilientConn(dial DialFunc, opts ResilientOptions) *ResilientConn {
	opts.fillDefaults()
	rc := &ResilientConn{
		dial:     dial,
		opts:     opts,
		free:     ring.New[*[]byte](4*opts.burstCap(), ring.MPMC),
		doorbell: make(chan struct{}, 1),
		ctl:      make(chan outFrame, ctlLaneCap),
		done:     make(chan struct{}),
	}
	rc.cond = sync.NewCond(&rc.mu)
	rc.wg.Add(2)
	go rc.manage()
	go rc.write()
	return rc
}

// SendSDO enqueues one data frame. It never blocks; a full outbox returns
// ErrOutboxFull and the frame is dropped.
func (rc *ResilientConn) SendSDO(s sdo.SDO) error {
	bp := rc.getBuf()
	var err error
	*bp, err = encodeSDO((*bp)[:0], s)
	return rc.enqueue(outFrame{kind: KindData, buf: bp, hops: int32(s.Hops), trace: s.Trace}, err)
}

// SendRouted enqueues a data frame addressed to PE `to` in the peer
// process. It never blocks.
func (rc *ResilientConn) SendRouted(to sdo.PEID, s sdo.SDO) error {
	bp := rc.getBuf()
	var err error
	*bp, err = encodeRouted((*bp)[:0], to, s)
	return rc.enqueue(outFrame{kind: KindRouted, buf: bp, hops: int32(s.Hops), trace: s.Trace}, err)
}

// SendReplica enqueues a data frame addressed to replica slot `rep` of PE
// `to` in the peer process. It never blocks.
func (rc *ResilientConn) SendReplica(to sdo.PEID, rep int32, s sdo.SDO) error {
	bp := rc.getBuf()
	var err error
	*bp, err = encodeReplica((*bp)[:0], to, rep, s)
	return rc.enqueue(outFrame{kind: KindReplica, buf: bp, hops: int32(s.Hops), trace: s.Trace}, err)
}

// SendFeedback enqueues one control frame on the reserved control lane.
// It never blocks.
func (rc *ResilientConn) SendFeedback(f Feedback) error {
	bp := rc.getBuf()
	*bp = encodeFeedback((*bp)[:0], f)
	return rc.enqueueCtl(outFrame{kind: KindFeedback, buf: bp})
}

// SendHeartbeat enqueues one liveness beacon, or silently discards it
// while there is no live connection: beacons are periodic, so the first
// one after a reconnect repairs the roster, while queueing beacons for a
// dead link would only deliver stale liveness claims after reconnect.
// Never blocks.
func (rc *ResilientConn) SendHeartbeat(hb Heartbeat) error {
	if live, err := rc.ctlLive(); !live {
		return err
	}
	bp := rc.getBuf()
	*bp = encodeHeartbeat((*bp)[:0], hb)
	return rc.enqueueCtl(outFrame{kind: KindHeartbeat, buf: bp})
}

// SendTargets enqueues one (term, epoch)-numbered target set on the
// control lane, or silently discards it while there is no live
// connection: dissemination is periodic and (term, epoch)-idempotent, so
// the next broadcast after a reconnect repairs it, while queueing targets
// for a dead link would only deliver a stale epoch. Never blocks.
func (rc *ResilientConn) SendTargets(t Targets) error {
	if live, err := rc.ctlLive(); !live {
		return err
	}
	bp := rc.getBuf()
	*bp = encodeTargets((*bp)[:0], t)
	return rc.enqueueCtl(outFrame{kind: KindTargets, buf: bp})
}

// SendTargetAck enqueues one upward dissemination ack, with the same
// silent-discard contract as SendTargets: an ack lost to a dead link is
// repaired by the ack that follows the next target broadcast, while a
// queued stale ack would only understate the peer's progress. Never
// blocks.
func (rc *ResilientConn) SendTargetAck(a TargetAck) error {
	if live, err := rc.ctlLive(); !live {
		return err
	}
	bp := rc.getBuf()
	*bp = encodeTargetAck((*bp)[:0], a)
	return rc.enqueueCtl(outFrame{kind: KindTargetAck, buf: bp})
}

// getBuf takes an encode buffer from the free list, or makes one when
// the list is empty.
func (rc *ResilientConn) getBuf() *[]byte {
	if bp, ok := rc.free.TryPop(); ok {
		return bp
	}
	b := make([]byte, 0, 64)
	return &b
}

// release hands a retired frame's buffer back to the free list (unless
// it is a jumbo or the list is full) and clears the frame, so the slot
// that held it keeps nothing alive.
func (rc *ResilientConn) release(f *outFrame) {
	if bp := f.buf; bp != nil && cap(*bp) <= maxKeptBuf {
		*bp = (*bp)[:0]
		rc.free.TryPush(bp)
	}
	f.buf = nil
}

// ctlLive decides whether a discardable control frame (heartbeat,
// targets, ack) is enqueued: only while a connection is installed, and
// never on a closed link (err = ErrLinkClosed). It reads cur lock-free,
// so no send takes mu.
func (rc *ResilientConn) ctlLive() (bool, error) {
	select {
	case <-rc.done:
		return false, ErrLinkClosed
	default:
	}
	return rc.cur.Load() != nil, nil
}

// enqueue queues a data frame, or refuses it with the error its encoding
// failed with.
func (rc *ResilientConn) enqueue(f outFrame, err error) error {
	if err != nil {
		rc.release(&f)
		return err
	}
	select {
	case <-rc.done:
		rc.release(&f)
		return ErrLinkClosed
	default:
	}
	q := rc.dataRing()
	if q == nil || !q.TryPush(f) {
		rc.release(&f)
		if q == nil || q.Closed() {
			return ErrLinkClosed
		}
		rc.countDrop(1)
		return ErrOutboxFull
	}
	if q.Closed() {
		// The push raced Close and may have landed after its drain
		// looked: drain again, so the frame is counted as dropped.
		rc.drainData()
		return nil
	}
	rc.kick()
	return nil
}

// dataRing returns the data outbox, allocating it on the first data
// frame; nil means the link is closed. The allocation takes qmu, never
// mu, so even the first data frame does not wait on a redial.
func (rc *ResilientConn) dataRing() *ring.Ring[outFrame] {
	if q := rc.outq.Load(); q != nil {
		return q
	}
	rc.qmu.Lock()
	defer rc.qmu.Unlock()
	if rc.closed {
		return nil
	}
	q := rc.outq.Load()
	if q == nil {
		q = ring.New[outFrame](rc.opts.QueueSize, ring.SingleConsumer)
		rc.outq.Store(q)
	}
	return q
}

// popData pops the head of the data outbox, if there is one.
func (rc *ResilientConn) popData() (outFrame, bool) {
	if q := rc.outq.Load(); q != nil {
		return q.TryPop()
	}
	return outFrame{}, false
}

// kick wakes the writer if it is parked: the writer raises sleeping
// before its final poll of both lanes, so a producer whose push landed
// after that poll necessarily observes the flag (both sides use
// sequentially consistent atomics) and rings the doorbell. The buffered
// channel makes ringing an already-rung (or awake) writer a no-op, so
// the steady-state producer cost is one atomic load.
func (rc *ResilientConn) kick() {
	if rc.sleeping.Load() {
		select {
		case rc.doorbell <- struct{}{}:
		default:
		}
	}
}

// enqueueCtl enqueues a control frame on the reserved lane; overflow
// (only possible if control traffic itself floods the lane) drops the
// frame and counts it under both FramesDropped and ControlDropped.
func (rc *ResilientConn) enqueueCtl(f outFrame) error {
	select {
	case <-rc.done:
		rc.release(&f)
		return ErrLinkClosed
	default:
	}
	select {
	case rc.ctl <- f:
		select {
		case <-rc.done: // raced Close: count the frame with the stranded ones
			rc.drainCtl()
		default:
		}
		return nil
	default:
		rc.release(&f)
		rc.countDrop(1)
		rc.countCtlDrop(1)
		return ErrOutboxFull
	}
}

// Recv returns the next frame from the peer, waiting across reconnects.
// It returns io.EOF only when the ResilientConn itself is closed.
func (rc *ResilientConn) Recv() (Message, error) {
	for {
		select {
		case <-rc.done: // frames still buffered on a closed link stay undelivered
			return Message{}, io.EOF
		default:
		}
		if rc.rconn == nil {
			conn, gen, ok := rc.current()
			if !ok {
				return Message{}, io.EOF
			}
			rc.rconn, rc.rgen = conn, gen
		}
		msg, err := rc.rconn.Recv()
		if err == nil {
			return msg, nil
		}
		rc.invalidate(rc.rgen)
		rc.rconn = nil
	}
}

// Stats snapshots the counters.
func (rc *ResilientConn) Stats() LinkStats {
	var qlen int
	if q := rc.outq.Load(); q != nil {
		qlen = q.Len()
	}
	rc.statsMu.Lock()
	defer rc.statsMu.Unlock()
	return LinkStats{
		FramesSent:     rc.sent,
		FramesDropped:  rc.dropped,
		Reconnects:     rc.reconnect,
		BatchesSent:    rc.batches,
		BatchedFrames:  rc.batched,
		ControlDropped: rc.ctlDropped,
		QueueLen:       qlen,
		QueueCap:       rc.opts.QueueSize,
	}
}

// Close tears the link down: the current connection is closed, both
// goroutines exit, queued frames are counted as dropped, and pending
// Recv/sends return. Safe to call more than once.
func (rc *ResilientConn) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.qmu.Lock()
	rc.closed = true
	rc.qmu.Unlock()
	if c := rc.cur.Swap(nil); c != nil {
		c.Close()
	}
	rc.cond.Broadcast()
	rc.mu.Unlock()
	close(rc.done)
	rc.wg.Wait()
	// Frames stranded in either lane never reached the wire. The ring is
	// closed first so a producer racing Close is refused rather than
	// admitted; one whose push still lands sees the ring closed and
	// drains again itself. A producer that had not yet allocated the
	// ring saw closed under qmu and was refused.
	if q := rc.outq.Load(); q != nil {
		q.Close()
	}
	rc.drainData()
	rc.drainCtl()
	return nil
}

// drainData counts every frame left in the data ring as dropped. It runs
// once the writer has exited, from Close and from any send whose push
// raced Close; qmu makes those drains take turns, so the ring still has
// one consumer at a time.
func (rc *ResilientConn) drainData() {
	rc.qmu.Lock()
	defer rc.qmu.Unlock()
	q := rc.outq.Load()
	if q == nil {
		return
	}
	for {
		f, ok := q.TryPop()
		if !ok {
			return
		}
		rc.release(&f)
		rc.countDrop(1)
	}
}

// drainCtl counts every frame left in the control lane as dropped.
func (rc *ResilientConn) drainCtl() {
	for {
		select {
		case f := <-rc.ctl:
			rc.release(&f)
			rc.countDrop(1)
			rc.countCtlDrop(1)
		default:
			return
		}
	}
}

func (rc *ResilientConn) countDrop(n int64) {
	rc.statsMu.Lock()
	rc.dropped += n
	rc.statsMu.Unlock()
}

func (rc *ResilientConn) countCtlDrop(n int64) {
	rc.statsMu.Lock()
	rc.ctlDropped += n
	rc.statsMu.Unlock()
}

// current blocks until a live connection exists (or the conn is closed)
// and returns it with its generation for failure attribution.
func (rc *ResilientConn) current() (*Conn, int, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for rc.cur.Load() == nil && !rc.closed {
		rc.cond.Wait()
	}
	if rc.closed {
		return nil, 0, false
	}
	return rc.cur.Load(), rc.gen, true
}

// invalidate retires generation gen's connection; stale calls (a reader
// and writer both reporting the same dead conn) are idempotent.
func (rc *ResilientConn) invalidate(gen int) {
	rc.mu.Lock()
	if rc.gen == gen {
		if c := rc.cur.Swap(nil); c != nil {
			c.Close()
			rc.cond.Broadcast() // wake the manager to redial
		}
	}
	rc.mu.Unlock()
}

// pause sleeps for d, returning false if the conn closed meanwhile.
func (rc *ResilientConn) pause(d time.Duration) bool {
	select {
	case <-rc.done:
		return false
	case <-time.After(d):
		return true
	}
}

// manage owns connection establishment: dial with jittered exponential
// backoff, install, announce (hello), then sleep until the connection is
// invalidated.
//
// Backoff discipline: the backoff resets to BackoffMin only after a
// generation with at least one successful wire *write* (wroteOK). A dial
// that connects but whose connection dies before writing anything — the
// signature of a half-open or immediately-resetting peer — keeps growing
// the delay; resetting on dial success alone would redial such a peer in
// a tight loop.
func (rc *ResilientConn) manage() {
	defer rc.wg.Done()
	backoff := rc.opts.BackoffMin
	everConnected := false
	barren := false // a dial was attempted and no write has succeeded since
	for {
		rc.mu.Lock()
		for rc.cur.Load() != nil && !rc.closed {
			rc.cond.Wait()
		}
		if rc.closed {
			rc.mu.Unlock()
			return
		}
		rc.mu.Unlock()

		if rc.wroteOK.Swap(false) {
			backoff = rc.opts.BackoffMin
		} else if barren {
			d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
			backoff *= 2
			if backoff > rc.opts.BackoffMax {
				backoff = rc.opts.BackoffMax
			}
			if !rc.pause(d) {
				return
			}
		}
		barren = true

		conn, err := rc.dial()
		if err != nil {
			continue
		}
		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			conn.Close()
			return
		}
		rc.cur.Store(conn)
		rc.gen++
		gen := rc.gen
		rc.cond.Broadcast()
		rc.mu.Unlock()
		// Every connection generation opens with a hello carrying the
		// protocol version, so a peer running another version refuses the
		// connection instead of misreading it. Nothing waits for the
		// peer's hello. Sent under the write deadline; a failure just
		// retires the conn. The hello deliberately does NOT count as the
		// generation's successful write: a half-open peer can absorb it
		// into its socket buffer without ever reading.
		conn.SetWriteDeadline(time.Now().Add(rc.opts.WriteTimeout))
		if err := conn.SendHello(0); err != nil {
			rc.invalidate(gen)
		}
		if everConnected {
			rc.statsMu.Lock()
			rc.reconnect++
			rc.statsMu.Unlock()
		}
		everConnected = true
	}
}

// burstCap is the most frames the writer pulls from the outbox before
// writing: at least 64 so flush coalescing pays off even with batching
// disabled, and at least BatchMax so a configured batch can fill.
func (o *ResilientOptions) burstCap() int {
	n := 64
	if o.BatchMax > n {
		n = o.BatchMax
	}
	return n
}

// write drains the outbox in bursts. Consecutive data/routed/replica
// frames are coalesced into one KindBatch frame when BatchMax > 1; the
// bufio writer is flushed only once the outbox runs dry
// (flush-on-idle), so a lone frame still reaches the wire immediately
// while a backlog pays one syscall per burst instead of one per frame. A
// failed write drops the frames being written, retires the connection and
// moves on — the outbox, not the TCP session, is the loss boundary.
func (rc *ResilientConn) write() {
	defer rc.wg.Done()
	burst := make([]outFrame, 0, rc.opts.burstCap())
	for {
		f, ok := rc.nextFrame()
		if !ok {
			return
		}
		burst = append(burst[:0], f)
		rc.fillBurst(&burst)
		conn, gen, ok := rc.current()
		if !ok {
			rc.dropFrames(burst, false)
			return
		}
		conn.SetWriteDeadline(time.Now().Add(rc.opts.WriteTimeout))
		rc.writeBurst(conn, gen, burst)
	}
}

// nextFrame blocks until a frame is available (control lane first) or
// the link closes. The fast path is two lock-free polls; the slow path
// parks on the doorbell after raising sleeping and re-polling, so a
// producer's kick cannot be lost between the poll and the park.
func (rc *ResilientConn) nextFrame() (outFrame, bool) {
	// Control frames take head-of-burst priority: poll the control lane
	// alone before looking at the data outbox.
	select {
	case f := <-rc.ctl:
		return f, true
	default:
	}
	if f, ok := rc.popData(); ok {
		return f, true
	}
	for {
		rc.sleeping.Store(true)
		// Final poll with the flag raised: a push that this poll misses
		// happened after the Store, so its producer sees sleeping and
		// rings the doorbell we are about to select on.
		select {
		case f := <-rc.ctl:
			rc.sleeping.Store(false)
			return f, true
		default:
		}
		if f, ok := rc.popData(); ok {
			rc.sleeping.Store(false)
			return f, true
		}
		select {
		case <-rc.done:
			rc.sleeping.Store(false)
			return outFrame{}, false
		case f := <-rc.ctl:
			rc.sleeping.Store(false)
			return f, true
		case <-rc.doorbell:
			// Rung by a producer (possibly a stale token from an earlier
			// wake): loop and re-poll both lanes.
		}
	}
}

// fillBurst drains immediately available frames into the burst, then — if
// a linger is configured and the burst is not full — waits up to the
// linger for stragglers. Returning early on done is safe: the caller's
// current() will fail and account the burst as dropped.
func (rc *ResilientConn) fillBurst(burst *[]outFrame) {
	max := rc.opts.burstCap()
	linger := rc.opts.BatchLinger
	for len(*burst) < max {
		// Control lane first: a queued retarget or heartbeat rides the
		// very next burst even when the data outbox is deep.
		select {
		case g := <-rc.ctl:
			*burst = append(*burst, g)
			continue
		default:
		}
		if g, ok := rc.popData(); ok {
			*burst = append(*burst, g)
			continue
		}
		if linger <= 0 {
			return
		}
		// Both lanes idle: wait up to the linger for stragglers, parking
		// exactly as nextFrame does so producers ring the doorbell. Only
		// one linger window per burst, so latency stays bounded; a
		// straggler that arrives re-enters the drain loop above.
		timer := time.NewTimer(linger)
		linger = 0
		got := false
		for !got {
			rc.sleeping.Store(true)
			select {
			case g := <-rc.ctl:
				rc.sleeping.Store(false)
				timer.Stop()
				*burst = append(*burst, g)
				got = true
				continue
			default:
			}
			if g, ok := rc.popData(); ok {
				rc.sleeping.Store(false)
				timer.Stop()
				*burst = append(*burst, g)
				got = true
				continue
			}
			select {
			case <-timer.C:
				rc.sleeping.Store(false)
				return
			case <-rc.done:
				rc.sleeping.Store(false)
				timer.Stop()
				return
			case g := <-rc.ctl:
				rc.sleeping.Store(false)
				timer.Stop()
				*burst = append(*burst, g)
				got = true
			case <-rc.doorbell:
				// Rung by a producer: re-poll both lanes.
			}
		}
	}
}

// batchable reports whether a frame kind may ride inside a batch frame.
// Control frames stay on their own frames: the control path's
// advertisements are latency-sensitive and keep their reserved lane.
func batchable(k Kind) bool { return k == KindData || k == KindRouted || k == KindReplica }

// idle reports both lanes empty — the flush-on-idle condition. Checking
// the control lane too piggybacks a pending control frame onto the data
// burst's flush instead of paying it a flush (and often a syscall) of
// its own.
func (rc *ResilientConn) idle() bool {
	q := rc.outq.Load()
	return (q == nil || q.Len() == 0) && len(rc.ctl) == 0
}

// writeBurst writes the burst as a sequence of batch frames (runs of
// batchable frames, when BatchMax > 1) and single frames, flushing with
// the last write iff the outbox is empty. On error the unwritten
// remainder of the burst is dropped and counted per member SDO.
func (rc *ResilientConn) writeBurst(conn *Conn, gen int, burst []outFrame) {
	useBatch := rc.opts.BatchMax > 1
	i := 0
	for i < len(burst) {
		// Group a run of batchable frames, bounded by BatchMax and the
		// batch byte cap.
		j := i
		if useBatch && batchable(burst[i].kind) {
			bytes := 0
			for j < len(burst) && j-i < rc.opts.BatchMax && batchable(burst[j].kind) {
				bytes += 5 + len(*burst[j].buf)
				if bytes > maxBatchBytes && j > i {
					break
				}
				j++
			}
		}
		var err error
		var n int
		if j-i >= 2 {
			n = j - i
			last := j == len(burst)
			err = conn.sendBatch(burst[i:j], last && rc.idle())
			if err == nil {
				rc.statsMu.Lock()
				rc.batches++
				rc.batched += int64(n)
				rc.statsMu.Unlock()
			}
		} else {
			n = 1
			last := i == len(burst)-1
			err = conn.writeFrame(burst[i].kind, *burst[i].buf, last && rc.idle())
		}
		if err != nil {
			rc.invalidate(gen)
			rc.dropFrames(burst[i:], true)
			return
		}
		// A landed write proves the connection useful; the manager resets
		// the reconnect backoff on this evidence (and only on it).
		rc.wroteOK.Store(true)
		for k := i; k < i+n; k++ {
			rc.release(&burst[k])
		}
		rc.statsMu.Lock()
		rc.sent += int64(n)
		rc.statsMu.Unlock()
		i += n
	}
}

// dropFrames accounts a slice of frames as lost — one count (and, when
// notify is set, one OnDrop callback) per member SDO, never per wire
// frame — and recycles their buffers.
func (rc *ResilientConn) dropFrames(frames []outFrame, notify bool) {
	rc.countDrop(int64(len(frames)))
	var ctl int64
	for i := range frames {
		if isControlKind(frames[i].kind) {
			ctl++
		}
		if notify && rc.opts.OnDrop != nil {
			rc.opts.OnDrop(frames[i].kind, int(frames[i].hops), frames[i].trace)
		}
		rc.release(&frames[i])
	}
	if ctl > 0 {
		rc.countCtlDrop(ctl)
	}
}
