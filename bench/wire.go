package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"aces/internal/graph"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/transport"
)

// timedLink times the uplink sends of the traced run. It embeds the
// ResilientLink so every optional interface the Cluster type-asserts its
// Uplink for (ElasticLink, TargetSender, HeartbeatSender, …) is still
// there, and overrides both data sends: the Cluster finds ElasticLink on
// the uplink and sends through SendReplicaSDO, so a wrapper that only
// overrides SendSDO measures nothing. It shares the sending PE's span
// buffer, so a send nests under the emit that caused it.
type timedLink struct {
	*spc.ResilientLink
	tb   *spanBuf
	base time.Time
}

func (l *timedLink) SendSDO(to sdo.PEID, s sdo.SDO) error {
	if s.Trace == 0 {
		return l.ResilientLink.SendSDO(to, s)
	}
	t0 := int64(time.Since(l.base))
	err := l.ResilientLink.SendSDO(to, s)
	l.tb.add(s.Trace, spanSend, int32(to), l.tb.cur, t0, int64(time.Since(l.base)))
	return err
}

func (l *timedLink) SendReplicaSDO(to sdo.PEID, rep int32, s sdo.SDO) error {
	if s.Trace == 0 {
		return l.ResilientLink.SendReplicaSDO(to, rep, s)
	}
	t0 := int64(time.Since(l.base))
	err := l.ResilientLink.SendReplicaSDO(to, rep, s)
	l.tb.add(s.Trace, spanSend, int32(to), l.tb.cur, t0, int64(time.Since(l.base)))
	return err
}

// connLink is cluster B's uplink in the traced run, where the benchmark
// owns the ResilientConn so its own serve loop can time Recv. B only ever
// sends feedback; SendSDO is there to satisfy RemoteLink.
type connLink struct{ rc *transport.ResilientConn }

func (l connLink) SendSDO(to sdo.PEID, s sdo.SDO) error { return l.rc.SendRouted(to, s) }
func (l connLink) SendFeedback(pe int32, rmax float64) error {
	return l.rc.SendFeedback(transport.Feedback{PE: pe, RMax: rmax})
}

// serveTimed is the traced run's stand-in for ResilientLink.Serve on
// cluster B: the same Recv → Inject* dispatch, with the time spent inside
// Recv accumulated and a recv and an inject_remote span per traced SDO.
// Time inside Recv includes blocking for the next frame, so recv_ns is
// an upper bound on the receive path's cost per message.
type serveTimed struct {
	rc     *transport.ResilientConn
	c      *spc.Cluster
	tb     *spanBuf
	base   time.Time
	msgs   atomic.Int64
	inRecv atomic.Int64 // ns
}

func (s *serveTimed) run() error {
	for {
		t0 := time.Since(s.base)
		msg, err := s.rc.Recv()
		t1 := time.Since(s.base)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		s.msgs.Add(1)
		s.inRecv.Add(int64(t1 - t0))
		switch msg.Kind {
		case transport.KindRouted, transport.KindReplica:
			traced := msg.SDO.Trace != 0
			if traced {
				s.tb.add(msg.SDO.Trace, spanRecv, int32(msg.To), -1, int64(t0), int64(t1))
			}
			i0 := int64(time.Since(s.base))
			if msg.Kind == transport.KindRouted {
				s.c.InjectSDO(msg.To, msg.SDO)
			} else {
				s.c.InjectReplicaSDO(msg.To, msg.Rep, msg.SDO)
			}
			if traced {
				s.tb.add(msg.SDO.Trace, spanInjectRemote, int32(msg.To), -1, i0, int64(time.Since(s.base)))
			}
		case transport.KindFeedback:
			s.c.InjectFeedback(msg.Feedback.PE, msg.Feedback.RMax)
		case transport.KindTargets:
			s.c.InjectTermTargets(msg.Targets.Term, msg.Targets.Epoch, msg.Targets.CPU)
		}
	}
}

// wireTopo is the two-PE split of both wire workloads: `in` on node 0,
// `out` (egress) on node 1.
func wireTopo() (*graph.Topology, []float64, error) {
	topo := graph.New(2, bigBuffer)
	in := topo.AddPE(graph.PE{Name: "in", Service: fixedCost(1e-6), Node: 0})
	out := topo.AddPE(graph.PE{Name: "out", Service: fixedCost(1e-6), Node: 1, Weight: 1})
	if err := topo.Connect(in, out); err != nil {
		return nil, nil, err
	}
	if err := addPlaceholderSource(topo, in); err != nil {
		return nil, nil, err
	}
	return topo, []float64{1, 1}, nil
}

// waitUntil polls cond every 200 µs until it holds or limit passes.
func waitUntil(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// buildWire returns the builder of a wire workload with the given batch
// size: cluster A (node 0) dials, cluster B (node 1) accepts, one TCP
// connection over loopback, both clusters in this process. The net.Conn
// is never wrapped: anything but a *net.TCPConn silently turns the
// gathered writev path into one write per batch member.
func buildWire(batchMax int) func(*liveWorkload, *runClock, *tracing, int64) (*deployment, error) {
	return func(lw *liveWorkload, clk *runClock, tr *tracing, seed int64) (*deployment, error) {
		topo, cpu, err := wireTopo()
		if err != nil {
			return nil, err
		}
		d := &deployment{pes: topo.NumPEs(), phases: map[string]float64{}, hops: map[int32]hopSource{
			0: {kind: spanInject, pe: 0, up: -1},
			1: {kind: spanInjectRemote, pe: 1, up: 0},
		}}
		lis, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		opts := transport.ResilientOptions{QueueSize: bigBuffer, BatchMax: batchMax}
		dial := func() (*transport.Conn, error) { return transport.Dial(lis.Addr(), time.Second) }
		accept := func() (*transport.Conn, error) { return lis.Accept() }

		t0 := time.Now()
		linkA := spc.NewResilientLink(dial, opts)
		var (
			uplinkA spc.RemoteLink = linkA
			uplinkB spc.RemoteLink
			linkB   *spc.ResilientLink
			rcB     *transport.ResilientConn
			statsB  func() transport.LinkStats
		)
		if tr == nil {
			linkB = spc.NewResilientLink(accept, opts)
			uplinkB, statsB = linkB, linkB.Stats
		} else {
			rcB = transport.NewResilientConn(accept, opts)
			uplinkB, statsB = connLink{rcB}, rcB.Stats
		}
		// One control frame each way proves both ends dialled, accepted
		// and wrote their hello. PE -1 is on nobody's feedback board.
		_ = linkA.SendFeedback(-1, 0)
		_ = uplinkB.SendFeedback(-1, 0)
		if !waitUntil(5*time.Second, func() bool {
			return linkA.Stats().FramesSent > 0 && statsB().FramesSent > 0
		}) {
			return nil, fmt.Errorf("%s: loopback link did not come up", lw.name)
		}
		d.phases["transport.dial_hello_ms"] = ms(time.Since(t0))

		in := newSynthetic(topo, 0, seed, tr, false)
		if tp, ok := in.(*timedProc); ok {
			uplinkA = &timedLink{ResilientLink: linkA, tb: tp.tb, base: tr.base}
		}
		snk := newSinkFor(lw, clk, tr, 1, topo.PEs[1].Service.T0)
		d.sinks = []*sink{snk}

		t0 = time.Now()
		a, err := spc.NewCluster(spc.Config{
			Topo: topo, Policy: policy.ACES, CPU: cpu, Dt: lw.dt, TimeScale: 1,
			Warmup: 1e-9, Seed: seed, LocalNodes: []sdo.NodeID{0}, Uplink: uplinkA,
			Processors: map[sdo.PEID]spc.Processor{0: in},
		})
		if err != nil {
			return nil, err
		}
		b, err := spc.NewCluster(spc.Config{
			Topo: topo, Policy: policy.ACES, CPU: cpu, Dt: lw.dt, TimeScale: 1,
			Warmup: 1e-9, Seed: seed, LocalNodes: []sdo.NodeID{1}, Uplink: uplinkB,
			Processors: map[sdo.PEID]spc.Processor{1: snk},
		})
		if err != nil {
			return nil, err
		}
		d.phases["spc.new_cluster_ms"] = ms(time.Since(t0))

		var serveWG sync.WaitGroup
		serveWG.Add(2)
		go func() {
			defer serveWG.Done()
			_ = linkA.Serve(a)
		}()
		var st *serveTimed
		if tr == nil {
			go func() {
				defer serveWG.Done()
				_ = linkB.Serve(b)
			}()
		} else {
			st = &serveTimed{rc: rcB, c: b, tb: tr.newBuf(spanCapacity), base: tr.base}
			go func() {
				defer serveWG.Done()
				_ = st.run()
			}()
			d.serveMsgs = func() (int64, time.Duration) { return st.msgs.Load(), time.Duration(st.inRecv.Load()) }
		}
		// B starts first, so its Δt ticker runs a little ahead of A's: what
		// A's PE sends on a tick reaches B after B's tick of that round and
		// waits for the next, however far apart the two Starts land. The
		// other order lets SDOs through in the same round whenever B's
		// ticker trails A's by more than the wire's transit time, which a
		// slow minute of the host makes it do.
		t0 = time.Now()
		if err := b.Start(); err != nil {
			return nil, err
		}
		if err := a.Start(); err != nil {
			return nil, err
		}
		d.phases["spc.start_ms"] = ms(time.Since(t0))

		d.ingress = a
		d.clusters = []*spc.Cluster{a, b}
		d.inject = func(s sdo.SDO) { a.InjectSDO(0, s) }
		d.linkStats = linkA.Stats
		d.teardown = func() time.Duration {
			t0 := time.Now()
			a.Stop()
			b.Stop()
			stop := time.Since(t0)
			// The listener goes first: B's manager may be parked in Accept.
			lis.Close()
			linkA.Close()
			if linkB != nil {
				linkB.Close()
			} else {
				rcB.Close()
			}
			serveWG.Wait()
			return stop
		}
		return d, nil
	}
}
