package spc

import (
	"errors"
	"io"
	"sync"

	"aces/internal/metrics"
	"aces/internal/sdo"
	"aces/internal/transport"
)

// Link is a transport.Conn-backed RemoteLink: SDOs go out as routed
// frames, advertisements as feedback frames. One Link serves one peer; a
// deployment partitioned across k processes uses a Link per neighbour and
// a Router to pick the right one per destination PE.
type Link struct {
	conn *transport.Conn
}

// NewLink wraps a framed connection as a RemoteLink.
func NewLink(conn *transport.Conn) *Link { return &Link{conn: conn} }

// SendSDO implements RemoteLink. Payloads must be nil or []byte (the wire
// constraint of the transport).
func (l *Link) SendSDO(to sdo.PEID, s sdo.SDO) error {
	if _, ok := s.Payload.([]byte); !ok && s.Payload != nil {
		// Cross-process SDOs cannot carry arbitrary in-memory payloads;
		// drop the payload rather than the SDO (control experiments use
		// empty payloads throughout).
		s.Payload = nil
	}
	return l.conn.SendRouted(to, s)
}

// SendReplicaSDO implements ElasticLink: addresses one replica slot of a
// logical PE.
func (l *Link) SendReplicaSDO(to sdo.PEID, rep int32, s sdo.SDO) error {
	if _, ok := s.Payload.([]byte); !ok && s.Payload != nil {
		s.Payload = nil // same wire constraint as SendSDO
	}
	return l.conn.SendReplica(to, rep, s)
}

// SendFeedback implements RemoteLink.
func (l *Link) SendFeedback(pe int32, rmax float64) error {
	return l.conn.SendFeedback(transport.Feedback{PE: pe, RMax: rmax})
}

// SendHeartbeat implements ControlSender: a liveness beacon for node
// `node` with a per-process sequence number.
func (l *Link) SendHeartbeat(node int32, seq uint64) error {
	return l.conn.SendHeartbeat(transport.Heartbeat{Node: node, Seq: seq})
}

// SendTargets implements ControlSender: disseminates a (term,
// epoch)-stamped per-slot target matrix.
func (l *Link) SendTargets(term, epoch uint64, rep [][]float64) error {
	return l.conn.SendTargets(transport.Targets{Term: term, Epoch: epoch, CPU: rep})
}

// SendTargetAck implements ControlSender: reports a descendant's applied
// (term, epoch) up the dissemination tree.
func (l *Link) SendTargetAck(origin int32, term, epoch uint64) error {
	return l.conn.SendTargetAck(transport.TargetAck{Origin: origin, Term: term, Epoch: epoch})
}

// Serve pumps incoming frames from the peer into the cluster until the
// connection closes or errors. Run it on its own goroutine; it returns nil
// on orderly EOF.
func (l *Link) Serve(c *Cluster) error { return serve(l.conn.Recv, c, l) }

// serve is the receive dispatch shared by Link and ResilientLink: it
// pumps messages from recv into c until recv returns io.EOF (nil) or
// another error. from is the link acks arrive on: a lagging origin's
// repair frames go straight back down it. Unrouted data (KindData) has
// no destination in a partitioned deployment and is ignored.
func serve(recv func() (transport.Message, error), c *Cluster, from ControlSender) error {
	for {
		msg, err := recv()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch msg.Kind {
		case transport.KindRouted:
			c.InjectSDO(msg.To, msg.SDO)
		case transport.KindReplica:
			c.InjectReplicaSDO(msg.To, msg.Rep, msg.SDO)
		case transport.KindFeedback:
			c.InjectFeedback(msg.Feedback.PE, msg.Feedback.RMax)
		case transport.KindHeartbeat:
			c.InjectHeartbeat(msg.Heartbeat.Node)
		case transport.KindTargets:
			c.InjectTermTargets(msg.Targets.Term, msg.Targets.Epoch, msg.Targets.CPU)
		case transport.KindTargetAck:
			c.InjectTargetAckFrom(msg.TargetAck.Origin, msg.TargetAck.Term, msg.TargetAck.Epoch, from)
		}
	}
}

// ResilientLink is the fault-tolerant counterpart of Link: sends enqueue
// into a transport.ResilientConn's bounded outbox and return immediately,
// so neither the PE emit path nor the Δt scheduler ever blocks on
// transport I/O. The conn reconnects on its own (jittered exponential
// backoff); frames lost to outbox overflow or write failure are counted,
// and data-frame losses are accounted as in-flight loss in the bound
// cluster's report — a dead peer degrades the partitioned deployment, it
// does not collapse it.
type ResilientLink struct {
	rc *transport.ResilientConn

	mu      sync.Mutex
	cluster *Cluster
}

// NewResilientLink builds a self-healing RemoteLink that (re)connects via
// dial. Any OnDrop already present in opts still runs, after the link's
// own loss accounting.
func NewResilientLink(dial transport.DialFunc, opts transport.ResilientOptions) *ResilientLink {
	l := &ResilientLink{}
	userDrop := opts.OnDrop
	opts.OnDrop = func(kind transport.Kind, hops int, trace uint64) {
		// Only data frames are billed as in-flight loss: feedback and
		// heartbeats are best-effort by contract (the next tick or beacon
		// repairs them), so billing their drops would overstate loss.
		if kind == transport.KindData || kind == transport.KindRouted || kind == transport.KindReplica {
			l.noteLoss(hops, trace)
		}
		if userDrop != nil {
			userDrop(kind, hops, trace)
		}
	}
	l.rc = transport.NewResilientConn(dial, opts)
	return l
}

func (l *ResilientLink) noteLoss(hops int, trace uint64) {
	l.mu.Lock()
	c := l.cluster
	l.mu.Unlock()
	if c != nil {
		c.NoteUplinkLoss(hops, trace)
	}
}

// Bind attaches the link to the cluster whose report should carry its
// loss accounting and transport counters. Serve calls it implicitly.
func (l *ResilientLink) Bind(c *Cluster) {
	l.mu.Lock()
	already := l.cluster == c
	l.cluster = c
	l.mu.Unlock()
	if !already && c != nil {
		c.AttachLink(l)
	}
}

// SendSDO implements RemoteLink. It never blocks: a full outbox drops the
// SDO and returns transport.ErrOutboxFull, which the emitter counts as
// in-flight loss.
func (l *ResilientLink) SendSDO(to sdo.PEID, s sdo.SDO) error {
	if _, ok := s.Payload.([]byte); !ok && s.Payload != nil {
		s.Payload = nil // same wire constraint as Link.SendSDO
	}
	return l.rc.SendRouted(to, s)
}

// SendFeedback implements RemoteLink. It never blocks.
func (l *ResilientLink) SendFeedback(pe int32, rmax float64) error {
	return l.rc.SendFeedback(transport.Feedback{PE: pe, RMax: rmax})
}

// SendReplicaSDO implements ElasticLink. It never blocks.
func (l *ResilientLink) SendReplicaSDO(to sdo.PEID, rep int32, s sdo.SDO) error {
	if _, ok := s.Payload.([]byte); !ok && s.Payload != nil {
		s.Payload = nil // same wire constraint as Link.SendSDO
	}
	return l.rc.SendReplica(to, rep, s)
}

// SendHeartbeat implements ControlSender. It never blocks; beacons are
// silently discarded while the link is down — the next beacon repairs
// the roster.
func (l *ResilientLink) SendHeartbeat(node int32, seq uint64) error {
	return l.rc.SendHeartbeat(transport.Heartbeat{Node: node, Seq: seq})
}

// SendTargets implements ControlSender. It never blocks; frames are
// silently withheld while the link is down — the periodic re-broadcast
// converges the peer once it reconnects.
func (l *ResilientLink) SendTargets(term, epoch uint64, rep [][]float64) error {
	return l.rc.SendTargets(transport.Targets{Term: term, Epoch: epoch, CPU: rep})
}

// SendTargetAck implements ControlSender. It never blocks; acks are
// silently discarded while the link is down — the ack after the next
// target frame repairs the view.
func (l *ResilientLink) SendTargetAck(origin int32, term, epoch uint64) error {
	return l.rc.SendTargetAck(transport.TargetAck{Origin: origin, Term: term, Epoch: epoch})
}

// Serve pumps incoming frames into the cluster, riding across peer
// reconnects; it returns nil once the link is closed.
func (l *ResilientLink) Serve(c *Cluster) error {
	l.Bind(c)
	return serve(l.rc.Recv, c, l)
}

// LinkStats implements LinkStatsSource for report integration.
func (l *ResilientLink) LinkStats() metrics.LinkStats {
	s := l.rc.Stats()
	return metrics.LinkStats{
		FramesSent:     s.FramesSent,
		FramesDropped:  s.FramesDropped,
		ControlDropped: s.ControlDropped,
		Reconnects:     s.Reconnects,
		QueueLen:       s.QueueLen,
		QueueCap:       s.QueueCap,
		BatchesSent:    s.BatchesSent,
		BatchedFrames:  s.BatchedFrames,
	}
}

// Stats snapshots the underlying transport counters.
func (l *ResilientLink) Stats() transport.LinkStats { return l.rc.Stats() }

// Close tears the link down; queued frames are counted as dropped.
func (l *ResilientLink) Close() error { return l.rc.Close() }

// Router fans a partitioned deployment out to several Links, choosing by
// destination PE. It implements RemoteLink itself.
type Router struct {
	mu        sync.RWMutex
	routes    map[sdo.PEID]RemoteLink
	repRoutes map[int64]RemoteLink // (pe, rep) slots pinned to a link
	peers     []RemoteLink
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{
		routes:    make(map[sdo.PEID]RemoteLink),
		repRoutes: make(map[int64]RemoteLink),
	}
}

// AddPeer registers a link and the set of PEs it reaches.
func (r *Router) AddPeer(link RemoteLink, pes ...sdo.PEID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers = append(r.peers, link)
	for _, pe := range pes {
		r.routes[pe] = link
	}
}

func repRouteKey(pe sdo.PEID, rep int32) int64 {
	return int64(pe)<<32 | int64(uint32(rep))
}

// AddReplica pins one replica slot of a logical PE to a link, for
// deployments whose replica placements span different peers than the
// primary. Slots without an explicit pin fall back to the PE's route.
func (r *Router) AddReplica(link RemoteLink, pe sdo.PEID, rep int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.repRoutes[repRouteKey(pe, rep)] = link
}

// SendSDO implements RemoteLink.
func (r *Router) SendSDO(to sdo.PEID, s sdo.SDO) error {
	r.mu.RLock()
	link, ok := r.routes[to]
	r.mu.RUnlock()
	if !ok {
		return errors.New("spc: no route to PE")
	}
	return link.SendSDO(to, s)
}

// SendReplicaSDO implements ElasticLink: replica-pinned routes win, then
// the logical PE's route. Links that are not elastic-capable get the SDO
// as a plain routed frame for the logical PE.
func (r *Router) SendReplicaSDO(to sdo.PEID, rep int32, s sdo.SDO) error {
	r.mu.RLock()
	link, ok := r.repRoutes[repRouteKey(to, rep)]
	if !ok {
		link, ok = r.routes[to]
	}
	r.mu.RUnlock()
	if !ok {
		return errors.New("spc: no route to PE replica")
	}
	if el, isElastic := link.(ElasticLink); isElastic {
		return el.SendReplicaSDO(to, rep, s)
	}
	return link.SendSDO(to, s)
}

// SendFeedback implements RemoteLink: advertisements are broadcast to all
// peers (any of them may host an upstream of the advertising PE).
func (r *Router) SendFeedback(pe int32, rmax float64) error {
	r.mu.RLock()
	peers := r.peers
	r.mu.RUnlock()
	var firstErr error
	for _, p := range peers {
		if err := p.SendFeedback(pe, rmax); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// eachControl calls send on every peer link that is a ControlSender and
// returns the first error. Control frames are broadcast: membership is
// judged by each receiver, receivers enforce (term, epoch) ordering so a
// peer seeing the same set twice is harmless, and in a well-formed tree
// a child recording a descendant's ack twice is harmless too.
func (r *Router) eachControl(send func(ControlSender) error) error {
	r.mu.RLock()
	peers := r.peers
	r.mu.RUnlock()
	var firstErr error
	for _, p := range peers {
		cs, ok := p.(ControlSender)
		if !ok {
			continue
		}
		if err := send(cs); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SendHeartbeat implements ControlSender by broadcast.
func (r *Router) SendHeartbeat(node int32, seq uint64) error {
	return r.eachControl(func(p ControlSender) error { return p.SendHeartbeat(node, seq) })
}

// SendTargets implements ControlSender by broadcast.
func (r *Router) SendTargets(term, epoch uint64, rep [][]float64) error {
	return r.eachControl(func(p ControlSender) error { return p.SendTargets(term, epoch, rep) })
}

// SendTargetAck implements ControlSender by broadcast.
func (r *Router) SendTargetAck(origin int32, term, epoch uint64) error {
	return r.eachControl(func(p ControlSender) error { return p.SendTargetAck(origin, term, epoch) })
}

// Interface compliance checks.
var (
	_ RemoteLink      = (*Link)(nil)
	_ RemoteLink      = (*Router)(nil)
	_ RemoteLink      = (*ResilientLink)(nil)
	_ LinkStatsSource = (*ResilientLink)(nil)

	_ ControlSender = (*Link)(nil)
	_ ControlSender = (*Router)(nil)
	_ ControlSender = (*ResilientLink)(nil)

	_ ElasticLink = (*Link)(nil)
	_ ElasticLink = (*Router)(nil)
	_ ElasticLink = (*ResilientLink)(nil)
)
