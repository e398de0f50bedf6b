package main

import (
	"math"
	"runtime"
	"time"

	"aces/internal/control"
	"aces/internal/controller"
	"aces/internal/metrics"
	"aces/internal/obs"
	"aces/internal/ring"
	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/transport"
	"aces/internal/workload"
)

// A probe is an isolated loop over one layer's public API: it gives the
// cost of a single call with nothing else running, which the traced run
// cannot see from outside. Each probe sizes its loop to about probeSpan,
// times it probeReps times and reports the median.
const (
	probeSpan = 200 * time.Millisecond
	probeReps = 5
)

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink float64

// timeLoop returns the median ns per iteration of run(n).
func timeLoop(run func(n int)) float64 {
	n := 1000
	for {
		t0 := time.Now()
		run(n)
		if el := time.Since(t0); el >= probeSpan/10 {
			n = int(float64(n) * float64(probeSpan) / float64(el))
			break
		}
		n *= 10
	}
	per := make([]float64, probeReps)
	for r := range per {
		t0 := time.Now()
		run(n)
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// probes maps a per-layer metric to the loop that measures it, in the
// metric's declared unit.
var probes = map[string]func() float64{
	"control.design_us": func() float64 {
		cfg := control.DefaultDesign(bigBuffer / 2)
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				g, err := control.Design(cfg)
				if err != nil {
					panic(err)
				}
				probeSink += g.B0
			}
		}) / 1e3
	},
	"control.flow_update_ns": func() float64 {
		g, err := control.Design(control.DefaultDesign(25))
		if err != nil {
			panic(err)
		}
		fc, err := control.NewFlowController(g, 0)
		if err != nil {
			panic(err)
		}
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				fc.SetMaxRate(60)
				probeSink += fc.Update(5, float64(20+i%10))
			}
		})
	},
	"controller.plan_aces_ns_per_pe": func() float64 {
		const pes = 32
		ticks := make([]controller.PETick, pes)
		for i := range ticks {
			ticks[i] = controller.PETick{
				Target: 1.0 / pes, Tokens: 2.0 / pes, Occupancy: float64(10 + i),
				Work: float64(1+i%4) / pes, Cap: math.Inf(1),
			}
			if i%3 == 0 {
				ticks[i].Cap = 0.5 / pes
			}
		}
		var pl controller.Planner
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				probeSink += pl.PlanACES(ticks, 1)[0]
			}
		}) / pes
	},
	"controller.feedback_bound_ns": func() float64 {
		fb := controller.NewFeedback()
		groups := make([][]int32, 8)
		down := []int32{1, 2, 3, 4}
		for j := range groups {
			groups[j] = []int32{int32(j)}
			fb.Publish(int32(j), float64(10+j))
		}
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				fb.Publish(int32(1+i%4), float64(10+i%7))
				probeSink += fb.GroupedOutputBound(groups, down)
			}
		})
	},
	"ring.spsc_pair_ns": func() float64 { return ringPair(ring.SPSC) },
	"ring.mpsc_pair_ns": func() float64 { return ringPair(ring.SingleConsumer) },
	"metrics.collector_egress_ns": func() float64 {
		col := metrics.NewCollector(1e-9)
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				col.Egress(1+float64(i)*1e-6, 1, 0.02)
			}
		})
	},
	"workload.cost_at_ns": func() float64 {
		svc := workload.NewService(workload.DefaultServiceParams(), sim.Substream(1, 1))
		t := 0.0
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				t += 1e-4
				probeSink += svc.CostAt(t)
			}
		})
	},
	"sim.kernel_ns_per_event": func() float64 {
		return timeLoop(func(n int) {
			s := sim.New()
			left := n
			var tick func()
			tick = func() {
				if left--; left > 0 {
					s.After(1e-3, tick)
				}
			}
			// 64 interleaved chains keep the event heap non-trivial.
			for c := 0; c < 64; c++ {
				s.After(float64(c)*1e-5, tick)
			}
			s.Run(0)
		})
	},
	"obs.record_ns": func() float64 {
		tr := obs.NewTracer(1, 1<<16, 1)
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				tr.Record(obs.Span{Trace: uint64(i + 1), PE: 1, Enqueue: 1, Dequeue: 2, Done: 3, Event: obs.EventProcessed})
			}
		})
	},
	"transport.probe_direct_ns": func() float64 {
		ns, _ := wireProbe(0, 0)
		return ns
	},
	"transport.probe_batch32_ns": func() float64 {
		ns, _ := wireProbe(32, 0)
		return ns
	},
}

// ringPair is one TryPush plus one TryPop on a ring of SDOs, on one
// goroutine: the uncontended cost of a hop's queue.
func ringPair(mode ring.Mode) float64 {
	r := ring.New[sdo.SDO](1024, mode)
	s := sdo.SDO{Stream: 1, Bytes: 1}
	return timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			r.TryPush(s)
			v, _ := r.TryPop()
			probeSink += float64(v.Bytes)
		}
	})
}

// wireProbe pushes SDOs over loopback TCP to a receiver that decodes and
// discards, as experiment E9 does, and returns wall ns and process-wide
// heap allocations per SDO, send through decode. batchMax 0 is the direct
// path: a plain Conn, one frame and one flush per SDO.
func wireProbe(batchMax, payload int) (nsPerSDO, allocsPerSDO float64) {
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer lis.Close()
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_ = c.SendHello(transport.FeatureBatch)
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	s := sdo.SDO{Stream: 1, Seq: 42, Origin: time.Unix(0, 1), Hops: 2, Bytes: 1}
	if payload > 0 {
		s.Payload = make([]byte, payload)
		s.Bytes = payload
	}
	var send func(n int)
	var closeLink func()
	if batchMax == 0 {
		c, err := transport.Dial(lis.Addr(), 5*time.Second)
		if err != nil {
			panic(err)
		}
		closeLink = func() { c.Close() }
		send = func(n int) {
			for i := 0; i < n; i++ {
				if err := c.SendSDO(s); err != nil {
					panic(err)
				}
			}
		}
	} else {
		rc := transport.NewResilientConn(func() (*transport.Conn, error) {
			return transport.Dial(lis.Addr(), 5*time.Second)
		}, transport.ResilientOptions{QueueSize: 4096, BatchMax: batchMax})
		closeLink = func() { rc.Close() }
		// The sender must read the receiver's hello before it may batch.
		go func() {
			for {
				if _, err := rc.Recv(); err != nil {
					return
				}
			}
		}()
		send = func(n int) {
			want := rc.Stats().FramesSent + int64(n)
			for i := 0; i < n; i++ {
				for rc.SendSDO(s) == transport.ErrOutboxFull {
					runtime.Gosched() // the writer is the bottleneck by design
				}
			}
			for rc.Stats().FramesSent < want {
				runtime.Gosched()
			}
		}
	}
	send(2048) // hello round trip, pools primed
	var m1, m2 runtime.MemStats
	var sent int
	nsPerSDO = timeLoop(func(n int) {
		runtime.ReadMemStats(&m1)
		send(n)
		runtime.ReadMemStats(&m2)
		sent = n
	})
	allocsPerSDO = float64(m2.Mallocs-m1.Mallocs) / float64(sent)
	closeLink()
	lis.Close()
	<-recvDone
	return nsPerSDO, allocsPerSDO
}

// workloadProbes lists, per workload, the probes of the layers it enters.
var workloadProbes = map[string][]string{
	"chain_inproc": {
		"ring.spsc_pair_ns", "ring.mpsc_pair_ns", "metrics.collector_egress_ns", "workload.cost_at_ns",
		"control.design_us", "control.flow_update_ns", "controller.plan_aces_ns_per_pe",
		"controller.feedback_bound_ns", "obs.record_ns",
	},
	"fanout_overload": {
		"ring.mpsc_pair_ns", "metrics.collector_egress_ns", "control.flow_update_ns",
		"controller.plan_aces_ns_per_pe", "controller.feedback_bound_ns",
	},
	"wire_small":    {"ring.mpsc_pair_ns", "transport.probe_direct_ns", "transport.probe_batch32_ns"},
	"wire_payload":  {"ring.mpsc_pair_ns", "transport.probe_payload_ns"},
	"control_epoch": {"control.design_us"},
	"sim_scale": {
		"control.flow_update_ns", "controller.plan_aces_ns_per_pe", "controller.feedback_bound_ns",
		"workload.cost_at_ns", "sim.kernel_ns_per_event",
	},
}

// runProbes runs the named probes and stores their readings. The
// payload probe yields two metrics from one loop.
func runProbes(res *Result, names []string) {
	for _, name := range names {
		if name == "transport.probe_payload_ns" {
			ns, allocs := wireProbe(256, 512)
			res.set(name, ns)
			res.set("transport.probe_payload_allocs", allocs)
			continue
		}
		res.set(name, probes[name]())
	}
}
