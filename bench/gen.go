package main

import (
	"runtime"
	"syscall"
	"time"

	"aces/internal/sdo"
)

// runClock fixes a live run's time base: warm-up, then nwin windows of
// length win. Slot 0 is the warm-up, slots 1..nwin the windows, slot
// nwin+1 everything after the generator stopped (the drain).
type runClock struct {
	start time.Time
	warm  time.Duration
	win   time.Duration
	nwin  int
}

func (c *runClock) slots() int { return c.nwin + 2 }

// slotAt maps an elapsed time to its slot.
func (c *runClock) slotAt(el time.Duration) int {
	if el < c.warm {
		return 0
	}
	w := 1 + int((el-c.warm)/c.win)
	if w > c.nwin+1 {
		w = c.nwin + 1
	}
	return w
}

func (c *runClock) total() time.Duration { return c.warm + time.Duration(c.nwin)*c.win }

// dueOffset is the open-loop schedule: SDO i is due i/rate after start,
// whatever the system under test is doing.
func dueOffset(i int64, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// dueCount is how many SDOs are due at or before elapsed time el.
func dueCount(el time.Duration, rate float64) int64 {
	if el < 0 {
		return 0
	}
	return int64(el.Seconds()*rate) + 1
}

// snapshot is the process-wide state read at a window boundary.
type snapshot struct {
	at      time.Duration // elapsed since start
	cpu     time.Duration // user+sys, RUSAGE_SELF
	mallocs uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(start time.Time) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: time.Since(start), cpu: cpuTime(), mallocs: ms.Mallocs}
}

// traceEvery is the sampling stride of the traced run: SDO i is traced
// when i is a multiple of it.
const traceEvery = 64

// genPeriod is how long the generator sleeps between bursts. PEs are
// granted CPU only on the 10 ms Δt tick, so sub-millisecond burstiness at
// the ingress is invisible to the system; sleeping instead of spinning
// keeps the generator from occupying one of the two cores.
const genPeriod = 500 * time.Microsecond

// generator is the open-loop load source: one goroutine, due times fixed
// in advance, Origin stamped with the due time (not the send time) so a
// stall charges every SDO that was due during it.
type generator struct {
	clk     *runClock
	rate    float64
	payload any
	bytes   int
	inject  func(sdo.SDO)
	tb      *spanBuf // non-nil in the traced run
	base    time.Time
	// traceBase is OR-ed into every trace id so ids stay unique across
	// the windows of a run; the low 32 bits are the SDO index plus one.
	traceBase uint64
	// markEvery, when positive, gives every markEvery-th SDO a trace id
	// without recording a span: the product's own tracer picks those up.
	markEvery int64

	injected []int64   // per slot, by due time
	late     [][]int32 // per slot, lateness samples in µs (every 16th SDO)
	snaps    []snapshot
}

func newGenerator(clk *runClock, rate float64, payloadBytes int, inject func(sdo.SDO)) *generator {
	g := &generator{clk: clk, rate: rate, inject: inject, bytes: 1}
	if payloadBytes > 0 {
		// One shared payload: SDO payloads are opaque and never mutated.
		g.payload = make([]byte, payloadBytes)
		g.bytes = payloadBytes
	}
	g.injected = make([]int64, clk.slots())
	g.late = make([][]int32, clk.slots())
	perWin := int(rate*clk.win.Seconds()/16) + 64
	for w := range g.late {
		g.late[w] = make([]int32, 0, perWin)
	}
	g.snaps = make([]snapshot, 0, clk.nwin+1)
	return g
}

// run injects every SDO due in [0, total) and takes a snapshot at the
// start of each window and at the end of the last.
func (g *generator) run() {
	clk := g.clk
	total := clk.total()
	last := dueCount(total-1, g.rate) // SDOs with due < total
	var i int64
	nextSnap := clk.warm
	for {
		el := time.Since(clk.start)
		if el >= nextSnap && len(g.snaps) <= clk.nwin {
			g.snaps = append(g.snaps, takeSnapshot(clk.start))
			nextSnap += clk.win
			el = time.Since(clk.start)
		}
		n := dueCount(el, g.rate)
		if n > last {
			n = last
		}
		for ; i < n; i++ {
			due := dueOffset(i, g.rate)
			w := clk.slotAt(due)
			g.injected[w]++
			if i&15 == 0 {
				g.late[w] = append(g.late[w], int32((el-due)/time.Microsecond))
			}
			s := sdo.SDO{Stream: 1, Seq: uint64(i), Origin: clk.start.Add(due), Bytes: g.bytes, Payload: g.payload}
			if g.tb != nil && i%traceEvery == 0 {
				s.Trace = g.traceBase | uint64(i+1)
				t0 := int64(time.Since(g.base))
				g.inject(s)
				g.tb.add(s.Trace, spanInject, 0, -1, t0, int64(time.Since(g.base)))
				continue
			}
			if g.markEvery > 0 && i%g.markEvery == 0 {
				s.Trace = uint64(i + 1)
			}
			g.inject(s)
		}
		if i >= last && len(g.snaps) > clk.nwin {
			return
		}
		time.Sleep(genPeriod)
	}
}
