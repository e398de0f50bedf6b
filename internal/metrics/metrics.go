// Package metrics implements the paper's measures of effectiveness
// (§III-A, §IV): weighted throughput of system outputs, end-to-end latency
// distribution, loss accounting split into input loss (cheap — nothing was
// invested yet) versus in-flight loss of partially processed data
// (expensive — wasted processing), and buffer/rate stability indicators.
package metrics

import (
	"fmt"
	"math"

	"aces/internal/stats"
)

// Collector accumulates run metrics for one simulation or live run.
// Samples before the warm-up horizon are discarded so transients do not
// bias steady-state estimates. Not safe for concurrent use; the live
// runtime aggregates per-node collectors.
type Collector struct {
	warmup float64

	weighted   float64 // Σ w over delivered egress SDOs after warmup
	deliveries int64

	lat    stats.Welford
	latRes *stats.Reservoir

	inputDrops    int64
	inflightDrops int64
	wastedHops    int64

	wtSeries stats.TimeSeries // windowed weighted-throughput samples

	bufOcc stats.Welford // pooled buffer-occupancy samples
}

// NewCollector creates a collector discarding all events before warmup
// (seconds of run time).
func NewCollector(warmup float64) *Collector {
	return &Collector{warmup: warmup, latRes: stats.NewReservoir(8192, 0x5EED)}
}

// Warmup returns the warm-up horizon.
func (c *Collector) Warmup() float64 { return c.warmup }

// Egress records the delivery of one SDO on a weighted output stream at
// time now with the given end-to-end latency (seconds).
func (c *Collector) Egress(now, weight, latency float64) {
	if now < c.warmup {
		return
	}
	c.deliveries++
	c.weighted += weight
	c.lat.Add(latency)
	c.latRes.Add(latency)
}

// InputDrop records the loss of an SDO at a system entry point (ingress
// buffer overflow).
func (c *Collector) InputDrop(now float64) {
	if now < c.warmup {
		return
	}
	c.inputDrops++
}

// InFlightDrop records the loss of a partially processed SDO (an internal
// buffer overflow); hops is the processing depth already invested.
func (c *Collector) InFlightDrop(now float64, hops int) {
	if now < c.warmup {
		return
	}
	c.inflightDrops++
	c.wastedHops += int64(hops)
}

// BufferSample records an input-buffer occupancy observation.
func (c *Collector) BufferSample(now, occupancy float64) {
	if now < c.warmup {
		return
	}
	c.bufOcc.Add(occupancy)
}

// ThroughputSample records a windowed weighted-throughput observation for
// the stability time series.
func (c *Collector) ThroughputSample(now, wt float64) {
	if now < c.warmup {
		return
	}
	c.wtSeries.Append(now, wt)
}

// Report is the frozen summary of a run.
type Report struct {
	// Duration is the measured (post-warmup) horizon in seconds.
	Duration float64 `json:"duration_s"`
	// WeightedThroughput is Σ w_j × delivery rate over weighted egress
	// streams, in weight·SDOs per second (§III-A).
	WeightedThroughput float64 `json:"weighted_throughput"`
	// Deliveries counts egress SDOs after warmup.
	Deliveries int64 `json:"deliveries"`
	// MeanLatency and StdLatency describe the end-to-end latency
	// distribution in seconds.
	MeanLatency float64 `json:"mean_latency_s"`
	// StdLatency is the latency standard deviation in seconds.
	StdLatency float64 `json:"std_latency_s"`
	// P50, P95 and P99 are latency quantiles in seconds.
	P50 float64 `json:"p50_latency_s"`
	P95 float64 `json:"p95_latency_s"`
	P99 float64 `json:"p99_latency_s"`
	// InputDrops counts SDOs lost at system entry; InFlightDrops counts
	// partially processed SDOs lost inside the graph; WastedHops is the
	// total processing depth thrown away with in-flight losses (§IV's
	// "wasted processing").
	InputDrops    int64 `json:"input_drops"`
	InFlightDrops int64 `json:"in_flight_drops"`
	WastedHops    int64 `json:"wasted_hops"`
	// MeanBufferOccupancy and StdBufferOccupancy pool all sampled PE
	// buffers (§IV's stability goal: buffers near target, low variance).
	MeanBufferOccupancy float64 `json:"mean_buffer_occupancy"`
	StdBufferOccupancy  float64 `json:"std_buffer_occupancy"`
	// ThroughputCV is the coefficient of variation of the windowed
	// weighted-throughput series — the oscillation indicator (§IV).
	ThroughputCV float64 `json:"throughput_cv"`
	// Links reports per-uplink transport counters for partitioned
	// deployments (empty when the run had no attached links).
	Links []LinkStats `json:"links,omitempty"`
	// Members reports the heartbeat-membership verdicts on peer nodes at
	// report time (partitioned deployments with health enabled).
	Members []MemberStatus `json:"members,omitempty"`
	// TargetEpoch is the tier-1 target epoch applied at report time
	// (0 = the deployment-time allocation, never retargeted).
	TargetEpoch uint64 `json:"target_epoch,omitempty"`
	// TargetTerm is the controller term of the applied target set (0 = the
	// deployment-time controller; a positive term means a standby claimed
	// control during the run).
	TargetTerm uint64 `json:"target_term,omitempty"`
	// FencedFrames counts target frames rejected for carrying a deposed
	// controller term — nonzero proves the fencing rule fired against a
	// zombie or partitioned ex-controller.
	FencedFrames int64 `json:"fenced_frames,omitempty"`
	// Retargets counts the target epochs this process accepted during the
	// run (its own re-solves plus disseminations from peers).
	Retargets int64 `json:"retargets,omitempty"`
	// ActiveReplicas is the largest per-PE count of active replica slots
	// under the applied target set (1 for a run that never scaled out).
	ActiveReplicas int `json:"active_replicas,omitempty"`
	// SolveMillis is the wall time of the most recent tier-1 re-solve on
	// this process (0 when no retarget loop ran).
	SolveMillis float64 `json:"solve_ms,omitempty"`
	// ColdSolves counts adaptive-loop re-solves that fell back to a cold
	// start because their warm start was missing or wrong-shaped (e.g.
	// stale after a topology change) — each one pays a full ascent
	// against the epoch deadline.
	ColdSolves int64 `json:"cold_solves,omitempty"`
	// TargetFramesSent counts target frames this process relayed to its
	// dissemination-tree children (0 for flat deployments).
	TargetFramesSent int64 `json:"target_frames_sent,omitempty"`
	// TargetEpochLag is the applied-vs-acked epoch gap of the slowest
	// tracked tree descendant at report time.
	TargetEpochLag uint64 `json:"target_epoch_lag,omitempty"`
	// PERestarts counts supervisor panic-recoveries across local PEs.
	PERestarts int64 `json:"pe_restarts,omitempty"`
	// BreakersOpen counts local PEs whose restart circuit breaker has
	// tripped (the PE is parked and its CPU share released).
	BreakersOpen int `json:"breakers_open,omitempty"`
	// Degenerate marks a report finalized at or before the warm-up
	// horizon: no measured window exists, so Duration and every rate
	// derived from it are zero and must not be compared against real runs.
	Degenerate bool `json:"degenerate,omitempty"`
}

// MemberStatus is one peer node's membership verdict at report time.
type MemberStatus struct {
	// Node is the peer's topology node ID.
	Node int32 `json:"node"`
	// State is "alive", "suspect" or "dead".
	State string `json:"state"`
	// SilenceS is the virtual seconds since the peer's last heartbeat.
	SilenceS float64 `json:"silence_s"`
}

// LinkStats summarizes one cross-partition uplink's transport behaviour
// over a run: the degrade-don't-collapse contract makes uplink loss a
// first-class metric alongside buffer loss.
type LinkStats struct {
	// FramesSent counts frames that reached the wire.
	FramesSent int64 `json:"frames_sent"`
	// FramesDropped counts frames lost at this endpoint (outbox overflow
	// or write failure); data-frame drops also appear as in-flight loss.
	FramesDropped int64 `json:"frames_dropped"`
	// ControlDropped counts control frames (feedback, heartbeats, targets,
	// replica targets, acks) among FramesDropped. Control frames ride a
	// reserved lane, so this should stay 0 under pure data floods; nonzero
	// means the control plane itself is saturating or the link is down.
	ControlDropped int64 `json:"control_frames_dropped,omitempty"`
	// Reconnects counts link re-establishments after the first connect.
	Reconnects int64 `json:"reconnects"`
	// QueueLen/QueueCap snapshot the outbox at report time.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// BatchesSent counts KindBatch wire frames; BatchedFrames counts the
	// member frames they carried, so BatchedFrames/BatchesSent is the
	// mean batch fill. Both stay zero when batching is off.
	BatchesSent   int64 `json:"batches_sent,omitempty"`
	BatchedFrames int64 `json:"batched_frames,omitempty"`
}

// Finalize freezes the collector into a report. now is the end-of-run
// time; it must be ≥ the warm-up horizon for any rates to be defined.
func (c *Collector) Finalize(now float64) Report {
	r := Report{
		InputDrops:          c.inputDrops,
		InFlightDrops:       c.inflightDrops,
		WastedHops:          c.wastedHops,
		Deliveries:          c.deliveries,
		MeanLatency:         c.lat.Mean(),
		StdLatency:          c.lat.Std(),
		MeanBufferOccupancy: c.bufOcc.Mean(),
		StdBufferOccupancy:  c.bufOcc.Std(),
	}
	if now > c.warmup {
		r.Duration = now - c.warmup
		r.WeightedThroughput = c.weighted / r.Duration
	} else {
		r.Degenerate = true
	}
	qs := c.latRes.Quantiles(0.5, 0.95, 0.99)
	r.P50, r.P95, r.P99 = qs[0], qs[1], qs[2]
	if c.wtSeries.Len() > 1 {
		mean := c.wtSeries.MeanAfter(0)
		if mean > 0 {
			r.ThroughputCV = c.wtSeries.StdAfter(0) / mean
		}
	}
	return r
}

// LossRate returns in-flight drops per delivered SDO — the wasted-work
// indicator used in the reports.
func (r Report) LossRate() float64 {
	if r.Deliveries == 0 {
		if r.InFlightDrops > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return float64(r.InFlightDrops) / float64(r.Deliveries)
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("wt=%.2f cv=%.3f lat=%.1fms±%.1f p95=%.1fms p99=%.1fms drops(in=%d fly=%d) bufocc=%.1f",
		r.WeightedThroughput, r.ThroughputCV, r.MeanLatency*1e3, r.StdLatency*1e3,
		r.P95*1e3, r.P99*1e3, r.InputDrops, r.InFlightDrops, r.MeanBufferOccupancy)
}
