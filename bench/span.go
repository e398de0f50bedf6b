package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanKind names what a span covers and which layer's public function it
// brackets. Spans are recorded by the benchmark only, from outside the
// program: around InjectSDO, around each wrapped Process, inside each
// emit callback, around each uplink send, each Recv and each Inject*.
type spanKind uint8

const (
	spanInject       spanKind = iota // generator → Cluster.InjectSDO
	spanProcess                      // a wrapped Processor.Process call
	spanEmit                         // the emit callback of an interior PE
	spanEgressEmit                   // the emit callback of an egress PE
	spanSend                         // RemoteLink.SendSDO / SendReplicaSDO
	spanRecv                         // ResilientConn.Recv on the peer
	spanInjectRemote                 // Cluster.Inject* from the serve loop
	spanPhase                        // a named control-epoch or simulator phase
)

var spanNames = [...]struct{ name, layer string }{
	spanInject:       {"admit", "spc"},
	spanProcess:      {"process", "bench"},
	spanEmit:         {"emit", "spc"},
	spanEgressEmit:   {"egress_emit", "spc"},
	spanSend:         {"send", "transport"},
	spanRecv:         {"recv", "transport"},
	spanInjectRemote: {"inject_remote", "spc"},
}

// span is one recorded interval. Times are nanoseconds since the run's
// base instant. parent is the index of the enclosing span in the same
// buffer, or -1.
type span struct {
	trace      uint64
	start, end int64
	parent     int32
	pe         int32
	kind       spanKind
	phase      uint8 // index into spanBuf.phases for spanPhase
}

// spanBuf is one goroutine's preallocated span store. Each recording
// site owns its own buffer, so recording takes no lock; buffers are
// merged when the run ends. A full buffer counts what it had to discard.
type spanBuf struct {
	spans   []span
	dropped int
	phases  []phaseName
	// cur is the innermost open span, or -1. A callee that runs on the
	// same goroutine with the same buffer (the uplink send inside an
	// emit) nests its span under it.
	cur int32
}

type phaseName struct{ name, layer string }

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]span, 0, capacity), cur: -1}
}

// open appends a span with no end yet and returns its index, or -1 when
// the buffer is full.
func (b *spanBuf) open(trace uint64, kind spanKind, pe int32, parent int32, start int64) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{trace: trace, kind: kind, pe: pe, parent: parent, start: start, end: start})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(idx int32, end int64) {
	if idx >= 0 {
		b.spans[idx].end = end
	}
}

// add records a finished span.
func (b *spanBuf) add(trace uint64, kind spanKind, pe int32, parent int32, start, end int64) int32 {
	idx := b.open(trace, kind, pe, parent, start)
	b.close(idx, end)
	return idx
}

// openPhase opens a named phase span (control epochs, the simulator),
// interning the name.
func (b *spanBuf) openPhase(trace uint64, name, layer string, parent int32, start int64) int32 {
	pi := -1
	for i, p := range b.phases {
		if p.name == name && p.layer == layer {
			pi = i
			break
		}
	}
	if pi < 0 {
		b.phases = append(b.phases, phaseName{name, layer})
		pi = len(b.phases) - 1
	}
	idx := b.open(trace, spanPhase, -1, parent, start)
	if idx >= 0 {
		b.spans[idx].phase = uint8(pi)
	}
	return idx
}

// addPhase records a finished named phase span.
func (b *spanBuf) addPhase(trace uint64, name, layer string, parent int32, start, end int64) int32 {
	idx := b.openPhase(trace, name, layer, parent, start)
	b.close(idx, end)
	return idx
}

func (b *spanBuf) nameOf(s span) (name, layer string) {
	if s.kind == spanPhase {
		p := b.phases[s.phase]
		return p.name, p.layer
	}
	n := spanNames[s.kind]
	return n.name, n.layer
}

// selfTimes returns, for every span of one buffer, its duration minus
// the part of that interval its child spans cover. Children are clipped
// to the parent and overlapping children are counted once, so nested and
// adjacent children both come out right.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	children := make(map[int32][]int32)
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for p, kids := range children {
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := int64(0)
		cursor := spans[p].start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < cursor {
				lo = cursor
			}
			if hi > spans[p].end {
				hi = spans[p].end
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[p] -= covered
	}
	return self
}

// traceLine is the JSONL form of a span.
type traceLine struct {
	Trace   uint64 `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	PE      int32  `json:"pe"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// writeTrace writes every buffer's spans to bench/out/trace_<workload>.jsonl,
// one JSON object per line. Span ids are unique across buffers.
func writeTrace(dir, workload string, bufs []*spanBuf) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, b := range bufs {
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			name, layer := b.nameOf(s)
			line := traceLine{
				Trace: s.trace, ID: base + i + 1, Name: name, Layer: layer, PE: s.pe,
				StartNS: s.start, EndNS: s.end, SelfNS: self[i],
			}
			if s.parent >= 0 {
				line.Parent = base + int(s.parent) + 1
			}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return "", err
			}
		}
		base += len(b.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
