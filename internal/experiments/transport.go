package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"aces/internal/ring"
	"aces/internal/sdo"
	"aces/internal/transport"
)

// TransportOptions scales E9, the data-plane throughput experiment: how
// many SDOs one uplink can push across a process boundary per second,
// per-frame flush versus batched framing. The zero value picks defaults.
type TransportOptions struct {
	// SDOs is the number of SDOs pushed per mode (default 150000).
	SDOs int
	// Senders is the number of concurrent sender goroutines, modelling PE
	// emitters sharing one uplink (default 4).
	Senders int
	// BatchMax is the batch size of the batched mode (default 32).
	BatchMax int
	// LargeBatchMax is the batch size of the gathered-write mode
	// (default 256). At this size a full batch of wire-test SDOs
	// crosses the transport's writev threshold, so the row measures
	// the zero-copy net.Buffers emission path rather than the bufio
	// copy path the smaller batch mode exercises.
	LargeBatchMax int
	// Linger is the writer linger of the batched modes (default 0:
	// flush-on-idle only).
	Linger time.Duration
}

func (o *TransportOptions) fillDefaults() {
	if o.SDOs <= 0 {
		o.SDOs = 150000
	}
	if o.Senders <= 0 {
		o.Senders = 4
	}
	if o.BatchMax <= 1 {
		o.BatchMax = 32
	}
	if o.LargeBatchMax <= 1 {
		o.LargeBatchMax = 256
	}
}

// TransportRow is one mode's measured wire throughput over loopback TCP.
// AllocsPerSDO counts process-wide heap allocations per SDO during the
// timed window — sender encode path plus receiver decode loop — so it is
// the steady-state figure the pooled data path is meant to drive to ~0.
type TransportRow struct {
	Mode         string  `json:"mode"`
	BatchMax     int     `json:"batch_max"`
	SDOs         int     `json:"sdos"`
	Seconds      float64 `json:"seconds"`
	SDOsPerSec   float64 `json:"sdos_per_sec"`
	NsPerSDO     float64 `json:"ns_per_sdo"`
	AllocsPerSDO float64 `json:"allocs_per_sdo"`
	// MeanFill is SDOs per batch frame (0 for unbatched modes).
	MeanFill float64 `json:"mean_batch_fill"`
}

// wireTestSDO is the representative cross-partition SDO: control
// experiments ship empty payloads (the bridge strips non-[]byte payloads
// anyway), so the wire cost is the 36-byte header-only frame.
func wireTestSDO() sdo.SDO {
	return sdo.SDO{Stream: 1, Seq: 42, Origin: time.Unix(0, 1), Hops: 2, Trace: 7}
}

// wirePayloadSDO is the representative bulk-data SDO: 512 opaque payload
// bytes ride the frame, which is what pushes a full large batch past the
// transport's gathered-write thresholds (both total size and mean member
// size), so the mode measures the writev path end to end. The receiver's
// decode copies payloads into one slab per 32 KiB and boxes each into
// SDO.Payload, so this row's allocs/SDO is expected to sit near 1, not 0.
func wirePayloadSDO() sdo.SDO {
	s := wireTestSDO()
	s.Payload = make([]byte, 512)
	s.Bytes = 512
	return s
}

// TransportThroughput measures the uplink data plane in five modes.
// The first four run against one loopback receiver that decodes and
// discards every frame; the last has no wire at all:
//
//	direct     — a shared Conn, one frame and one flush per SDO (the
//	             historic hot path this PR fixes)
//	unbatched  — a ResilientConn outbox with flush-on-idle coalescing
//	batch-N    — the same outbox with KindBatch framing
//	batch-M    — the same, with 512-byte payload SDOs and batches
//	             large enough that every full batch leaves via the
//	             gathered writev path
//	ring/spsc  — the raw lock-free ring under the outbox and the PE
//	             input buffers, one producer against one consumer
func TransportThroughput(o TransportOptions) ([]TransportRow, error) {
	o.fillDefaults()

	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lis.Close()
	// The receiver decodes everything it is sent, so the measurement
	// covers decode as well as encode.
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c *transport.Conn) {
				defer c.Close()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	rows := make([]TransportRow, 0, 5)

	direct, err := bestOf(3, func() (TransportRow, error) {
		return transportDirect(lis.Addr(), o)
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, direct)

	unbatched, err := bestOf(3, func() (TransportRow, error) {
		return transportResilient(lis.Addr(), o, "resilient/unbatched", wireTestSDO(),
			transport.ResilientOptions{QueueSize: 4096})
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, unbatched)

	batched, err := bestOf(3, func() (TransportRow, error) {
		return transportResilient(lis.Addr(), o, fmt.Sprintf("resilient/batch-%d", o.BatchMax), wireTestSDO(),
			transport.ResilientOptions{QueueSize: 4096, BatchMax: o.BatchMax, BatchLinger: o.Linger})
	})
	if err != nil {
		return nil, err
	}
	batched.BatchMax = o.BatchMax
	rows = append(rows, batched)

	large, err := bestOf(3, func() (TransportRow, error) {
		return transportResilient(lis.Addr(), o, fmt.Sprintf("resilient/batch-%d+512B", o.LargeBatchMax), wirePayloadSDO(),
			transport.ResilientOptions{QueueSize: 4096, BatchMax: o.LargeBatchMax, BatchLinger: o.Linger})
	})
	if err != nil {
		return nil, err
	}
	large.BatchMax = o.LargeBatchMax
	rows = append(rows, large)

	rr, err := bestOf(3, func() (TransportRow, error) {
		return transportRing(o)
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, rr)

	return rows, nil
}

// transportRing measures the raw SPSC ring the resilient outbox and the
// PE input buffers are built on: one producer hands o.SDOs SDOs to one
// consumer through a 4096-slot ring, both spinning on the Try* fast
// path. No wire, no encode — the row isolates the queue itself, and the
// CI gate (normalized by the same run's direct/ row, so machine speed
// cancels) catches a ring slowdown independently of the transport
// around it.
func transportRing(o TransportOptions) (TransportRow, error) {
	r := ring.New[sdo.SDO](4096, ring.SPSC)
	s := wireTestSDO()
	n := o.SDOs
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; {
			if _, ok := r.TryPop(); ok {
				i++
				continue
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < n; i++ {
		for !r.TryPush(s) {
			runtime.Gosched()
		}
	}
	<-done
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m2)
	allocs := float64(m2.Mallocs-m1.Mallocs) / float64(n)
	return transportRow("ring/spsc", n, secs, allocs, 0), nil
}

// bestOf repeats a measurement and keeps the fastest run — the standard
// low-noise estimator for wall-clock microbenchmarks (slowdowns come from
// interference, never from the code being measured).
func bestOf(n int, f func() (TransportRow, error)) (TransportRow, error) {
	var best TransportRow
	for i := 0; i < n; i++ {
		r, err := f()
		if err != nil {
			return TransportRow{}, err
		}
		if i == 0 || r.NsPerSDO < best.NsPerSDO {
			best = r
		}
	}
	return best, nil
}

// transportDirect measures the per-frame-flush baseline on a shared Conn.
func transportDirect(addr string, o TransportOptions) (TransportRow, error) {
	c, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		return TransportRow{}, err
	}
	defer c.Close()
	s := wireTestSDO()
	// Warm the buffer pool and bufio writer outside the timing.
	for i := 0; i < 256; i++ {
		if err := c.SendSDO(s); err != nil {
			return TransportRow{}, err
		}
	}
	secs, allocs, err := timedSend(o.Senders, o.SDOs, func() error { return c.SendSDO(s) }, nil)
	if err != nil {
		return TransportRow{}, err
	}
	return transportRow("direct/flush-per-sdo", o.SDOs, secs, allocs, 0), nil
}

// transportResilient measures one ResilientConn configuration end to end:
// the timed window closes only once the writer has drained every enqueued
// SDO to the wire, so the rate is wire throughput, not the enqueue rate.
func transportResilient(addr string, o TransportOptions, mode string, s sdo.SDO, opts transport.ResilientOptions) (TransportRow, error) {
	rc := transport.NewResilientConn(func() (*transport.Conn, error) {
		return transport.Dial(addr, 5*time.Second)
	}, opts)
	defer rc.Close()
	send := func() error {
		for {
			err := rc.SendSDO(s)
			if err == nil {
				return nil
			}
			if err == transport.ErrOutboxFull {
				runtime.Gosched() // the writer is the bottleneck by design
				continue
			}
			return err
		}
	}
	// Warmup: enough traffic that the connection is up and the pool is
	// primed before the clock starts.
	const warmup = 512
	for i := 0; i < warmup; i++ {
		if err := send(); err != nil {
			return TransportRow{}, err
		}
	}
	if err := waitSent(rc, warmup, 30*time.Second); err != nil {
		return TransportRow{}, err
	}
	before := rc.Stats()
	secs, allocs, err := timedSend(o.Senders, o.SDOs, send, func() error {
		return waitSent(rc, before.FramesSent+int64(o.SDOs), 120*time.Second)
	})
	if err != nil {
		return TransportRow{}, err
	}
	after := rc.Stats()
	fill := 0.0
	if db := after.BatchesSent - before.BatchesSent; db > 0 {
		fill = float64(after.BatchedFrames-before.BatchedFrames) / float64(db)
	}
	return transportRow(mode, o.SDOs, secs, allocs, fill), nil
}

// timedSend distributes n sends across p goroutines and measures wall
// time and process-wide allocations for the whole window, including the
// optional drain wait (nil for synchronous senders).
func timedSend(p, n int, send func() error, drain func() error) (secs, allocsPerSDO float64, err error) {
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, p)
	for i := 0; i < p; i++ {
		count := n / p
		if i < n%p {
			count++
		}
		wg.Add(1)
		go func(count int) {
			defer wg.Done()
			for j := 0; j < count; j++ {
				if err := send(); err != nil {
					errCh <- err
					return
				}
			}
		}(count)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, 0, err
	default:
	}
	if drain != nil {
		if err := drain(); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(start).Seconds()
	runtime.ReadMemStats(&m2)
	return el, float64(m2.Mallocs-m1.Mallocs) / float64(n), nil
}

// waitSent polls until the link has written `target` logical frames.
func waitSent(rc *transport.ResilientConn, target int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := rc.Stats()
		if st.FramesSent >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport experiment: writer stalled at %d/%d frames (%d dropped)",
				st.FramesSent, target, st.FramesDropped)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func transportRow(mode string, n int, secs, allocs, fill float64) TransportRow {
	return TransportRow{
		Mode:         mode,
		SDOs:         n,
		Seconds:      secs,
		SDOsPerSec:   float64(n) / secs,
		NsPerSDO:     secs * 1e9 / float64(n),
		AllocsPerSDO: allocs,
		MeanFill:     fill,
	}
}

// FormatTransport renders E9: uplink throughput, per-frame flush vs
// batched framing. Speedup is relative to the first (baseline) row.
func FormatTransport(w io.Writer, rows []TransportRow) {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		speed := "1.00"
		if len(rows) > 0 && rows[0].NsPerSDO > 0 {
			speed = fmt.Sprintf("%.2f", rows[0].NsPerSDO/r.NsPerSDO)
		}
		fill := "-"
		if r.MeanFill > 0 {
			fill = fmt.Sprintf("%.1f", r.MeanFill)
		}
		out = append(out, []string{
			r.Mode,
			fmt.Sprintf("%d", r.SDOs),
			fmt.Sprintf("%.0f", r.SDOsPerSec),
			fmt.Sprintf("%.0f", r.NsPerSDO),
			fmt.Sprintf("%.2f", r.AllocsPerSDO),
			fill,
			speed,
		})
	}
	Table(w, "E9 — uplink data-plane throughput (loopback TCP), per-frame flush vs batched framing",
		[]string{"mode", "sdos", "sdo/s", "ns/sdo", "allocs/sdo", "fill", "speedup"}, out)
}

// CompareTransport gates CI on the committed baseline. Wall-clock on a
// CI runner is not comparable to the committing machine's (nor to its own
// across runs), so ns/SDO is gated in machine-normalized form: each
// mode's ns/SDO relative to the same run's per-frame-flush baseline. A
// mode regresses when its normalized cost grows more than 20% AND by at
// least 0.05× the anchor — batching or flush coalescing stopped paying.
// The absolute floor keeps the fastest modes (the raw ring runs ~10× the
// syscall-bound anchor's speed, so its ratio is tiny) from failing on
// anchor jitter alone; a real slowdown of a fast mode still clears it.
// Allocations gate the same way: a mode regresses when its allocs/SDO
// grow more than 20% AND by at least half an allocation (allocations are
// deterministic; the absolute floor keeps noise around zero from tripping
// the ratio). A uniform host slowdown moves every mode equally and
// passes; that is intended.
func CompareTransport(baseline, current []TransportRow) error {
	bDir, err := directRow(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cDir, err := directRow(current)
	if err != nil {
		return fmt.Errorf("current run: %w", err)
	}
	cur := make(map[string]TransportRow, len(current))
	for _, r := range current {
		cur[r.Mode] = r
	}
	var faults []string
	for _, b := range baseline {
		c, ok := cur[b.Mode]
		if !ok {
			faults = append(faults, fmt.Sprintf("mode %q missing from current run", b.Mode))
			continue
		}
		relB := b.NsPerSDO / bDir.NsPerSDO
		relC := c.NsPerSDO / cDir.NsPerSDO
		if relC > relB*1.20 && relC > relB+0.05 {
			faults = append(faults, fmt.Sprintf("%s: %.2f× the per-frame baseline vs %.2f× committed (>+20%%)",
				b.Mode, relC, relB))
		}
		if c.AllocsPerSDO > b.AllocsPerSDO+0.5 && c.AllocsPerSDO > b.AllocsPerSDO*1.20 {
			faults = append(faults, fmt.Sprintf("%s: allocs/SDO %.2f vs baseline %.2f",
				b.Mode, c.AllocsPerSDO, b.AllocsPerSDO))
		}
	}
	if len(faults) > 0 {
		return fmt.Errorf("transport regression: %v", faults)
	}
	return nil
}

// directRow finds the per-frame-flush anchor mode the ns/SDO gate
// normalizes against.
func directRow(rows []TransportRow) (TransportRow, error) {
	for _, r := range rows {
		if strings.HasPrefix(r.Mode, "direct/") && r.NsPerSDO > 0 {
			return r, nil
		}
	}
	return TransportRow{}, fmt.Errorf("no direct/* mode to normalize against")
}
