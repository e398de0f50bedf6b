package main

import (
	"math"
	"sort"
	"time"
)

// spanSamples are the per-layer samples a traced live run's spans yield,
// pooled over its windows. Durations are nanoseconds.
type spanSamples struct {
	admit       []float64 // InjectSDO at the ingress
	emit        []float64 // interior emit, self time (minus the uplink send)
	egressEmit  []float64
	processSelf []float64 // wrapped Process minus its emits
	send        []float64
	injectRem   []float64
	hopWait     []float64 // previous hop's hand-off → this hop's Process entry
	transit     []float64 // send return → Recv return on the peer
	cover       []float64 // share of an SDO's life its spans account for
	deliveries  int       // traced SDO paths that reached a sink
	dropped     int       // spans discarded by full buffers
}

type spanKey struct {
	trace uint64
	kind  spanKind
	pe    int32
}

type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// collect joins one window's spans. hops says what precedes each PE,
// sinks which PEs end a path, and dueNS maps a trace id to its SDO's due
// time on the span time base.
//
// A span's self time still holds the clock reads that bracket it: about
// one read of its own and one per child. clockNS, the measured cost of a
// read, is taken back out so the per-call numbers are the layer's, not
// the harness's.
func (ss *spanSamples) collect(bufs []*spanBuf, hops map[int32]hopSource, sinks []*sink, dueNS func(trace uint64) int64, clockNS float64) {
	idx := make(map[spanKey]interval)
	var procs []span
	for _, b := range bufs {
		ss.dropped += b.dropped
		self := selfTimes(b.spans)
		kids := make([]int, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				kids[s.parent]++
			}
		}
		for i, s := range b.spans {
			own := math.Max(0, float64(self[i])-clockNS*float64(1+kids[i]))
			switch s.kind {
			case spanInject:
				ss.admit = append(ss.admit, own)
			case spanEmit:
				ss.emit = append(ss.emit, own)
			case spanEgressEmit:
				ss.egressEmit = append(ss.egressEmit, own)
			case spanProcess:
				ss.processSelf = append(ss.processSelf, own)
				procs = append(procs, s)
			case spanSend:
				ss.send = append(ss.send, own)
			case spanInjectRemote:
				ss.injectRem = append(ss.injectRem, own)
			}
			idx[spanKey{s.trace, s.kind, s.pe}] = interval{s.start, s.end}
		}
	}
	for _, p := range procs {
		hs, ok := hops[p.pe]
		if !ok {
			continue
		}
		if prev, ok := idx[spanKey{p.trace, hs.kind, hs.pe}]; ok {
			ss.hopWait = append(ss.hopWait, float64(max(0, p.start-prev.end)))
		}
	}
	for k, recv := range idx {
		if k.kind != spanRecv {
			continue
		}
		if snd, ok := idx[spanKey{k.trace, spanSend, k.pe}]; ok {
			ss.transit = append(ss.transit, float64(max(0, recv.end-snd.end)))
		}
	}
	isSink := map[int32]bool{}
	for _, s := range sinks {
		isSink[s.pe] = true
	}
	for _, p := range procs {
		if !isSink[p.pe] {
			continue
		}
		if covered, ok := pathCover(idx, hops, p, dueNS(p.trace)); ok {
			ss.deliveries++
			if life := p.end - dueNS(p.trace); life > 0 {
				ss.cover = append(ss.cover, float64(covered)/float64(life))
			}
		}
	}
}

// pathCover walks one delivered SDO's path backwards from its sink and
// sums the spans and waits that partition its life: generator lateness,
// admit, and per hop the wait and the Process span, plus transit and the
// remote inject across a wire.
func pathCover(idx map[spanKey]interval, hops map[int32]hopSource, sinkProc span, due int64) (int64, bool) {
	var covered int64
	j := sinkProc.pe
	for {
		p, ok := idx[spanKey{sinkProc.trace, spanProcess, j}]
		if !ok {
			return 0, false
		}
		hs := hops[j]
		prev, ok := idx[spanKey{sinkProc.trace, hs.kind, hs.pe}]
		if !ok {
			return 0, false
		}
		covered += p.dur() + max(0, p.start-prev.end)
		switch hs.kind {
		case spanInject:
			return covered + prev.dur() + max(0, prev.start-due), true
		case spanInjectRemote:
			recv, ok1 := idx[spanKey{sinkProc.trace, spanRecv, j}]
			snd, ok2 := idx[spanKey{sinkProc.trace, spanSend, j}]
			if !ok1 || !ok2 {
				return 0, false
			}
			covered += prev.dur() + max(0, recv.end-snd.end)
		}
		j = hs.up
	}
}

// busyPerDelivery is the CPU the spans can attribute to one delivered
// SDO: each kind's median self time, times how often it ran, over the
// traced deliveries. Medians, because a span that was preempted measures
// the scheduler, not the layer.
func (ss *spanSamples) busyPerDelivery() float64 {
	if ss.deliveries == 0 {
		return 0
	}
	var busy float64
	for _, xs := range [][]float64{ss.admit, ss.emit, ss.egressEmit, ss.processSelf, ss.send, ss.injectRem} {
		busy += pctl(xs, 0.5) * float64(len(xs))
	}
	return busy / float64(ss.deliveries)
}

// clockReadNS measures one time.Since call, the unit of harness overhead
// inside every span.
func clockReadNS() float64 {
	const n = 200_000
	base := time.Now()
	var sum time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sum += time.Since(base)
	}
	probeSink += float64(sum)
	return float64(time.Since(t0)) / n
}

// pctl is the q-quantile of an unsorted sample; 0 for an empty one.
func pctl(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
