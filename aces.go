package aces

import (
	"time"

	"aces/internal/control"
	"aces/internal/graph"
	"aces/internal/metrics"
	"aces/internal/obs"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/streamsim"
	"aces/internal/transport"
	"aces/internal/workload"
)

// Identifier types.
type (
	// StreamID identifies a stream; external inputs are s_0..s_{S-1}.
	StreamID = sdo.StreamID
	// PEID identifies a processing element p_0..p_{P-1}.
	PEID = sdo.PEID
	// NodeID identifies a processing node n_0..n_{N-1}.
	NodeID = sdo.NodeID
	// SDO is the stream data object, the unit of dataflow.
	SDO = sdo.SDO
)

// Topology construction and generation.
type (
	// Topology is a deployment: PEs, DAG edges, placement and sources.
	Topology = graph.Topology
	// PE describes one processing element.
	PE = graph.PE
	// Source is an external input stream attached to an ingress PE.
	Source = graph.Source
	// BurstSpec selects a source arrival process.
	BurstSpec = graph.BurstSpec
	// GenConfig parameterizes the random topology generator (§VI-A).
	GenConfig = graph.GenConfig
	// Edge is a directed PE-graph edge.
	Edge = graph.Edge
)

// Source arrival kinds.
const (
	BurstDeterministic = graph.BurstDeterministic
	BurstPoisson       = graph.BurstPoisson
	BurstOnOff         = graph.BurstOnOff
)

// NewTopology returns an empty topology with the given node count and
// default per-PE input buffer capacity (the paper's B, default 50).
func NewTopology(numNodes, defaultBufferSize int) *Topology {
	return graph.New(numNodes, defaultBufferSize)
}

// Generate builds a random layered-DAG topology with the paper's shape
// parameters (fan-in ≤ 3, fan-out ≤ 4, 20% multi-IO) and load-aware
// placement, calibrated into overload.
func Generate(cfg GenConfig) (*Topology, error) { return graph.Generate(cfg) }

// DefaultGenConfig returns the §VI-C generation parameters at the given
// scale.
func DefaultGenConfig(numPEs, numNodes int, seed int64) GenConfig {
	return graph.DefaultGenConfig(numPEs, numNodes, seed)
}

// ServiceParams is the two-state Markov-modulated PE cost model (§VI-B):
// per-SDO costs T0/T1, stationary slow fraction ρ, dwell scale λ_S and
// output multiplicity λ_m.
type ServiceParams = workload.ServiceParams

// DefaultServiceParams returns the paper's §VI-C settings: T0 = 2 ms,
// T1 = 20 ms, ρ = 0.5, λ_S = 10, λ_m = 1.
func DefaultServiceParams() ServiceParams { return workload.DefaultServiceParams() }

// Tier 1: the global optimizer.
type (
	// OptimizeConfig tunes the tier-1 solver.
	OptimizeConfig = optimize.Config
	// Allocation is the tier-1 result: CPU targets and fluid rates.
	Allocation = optimize.Allocation
	// LinearUtility is U(x) = x (the paper's weighted throughput itself).
	LinearUtility = optimize.LinearUtility
)

// Optimize computes time-averaged CPU targets maximizing the weighted
// throughput of the topology (paper §V-B).
func Optimize(t *Topology, cfg OptimizeConfig) (*Allocation, error) {
	return optimize.Solve(t, cfg)
}

// Tier 2: control design.
type (
	// FlowGains are the Eq. 7 coefficients (λ_k, μ_l, b₀).
	FlowGains = control.FlowGains
	// FlowDesignConfig parameterizes the LQR synthesis.
	FlowDesignConfig = control.DesignConfig
	// FlowController executes Eq. 7 for one PE.
	FlowController = control.FlowController
)

// DesignFlowGains synthesizes Eq. 7 gains by solving the discrete
// algebraic Riccati equation for the delay-embedded buffer integrator.
func DesignFlowGains(cfg FlowDesignConfig) (FlowGains, error) { return control.Design(cfg) }

// DefaultFlowDesign returns the reproduction's default LQR design for a
// buffer target b₀.
func DefaultFlowDesign(b0 float64) FlowDesignConfig { return control.DefaultDesign(b0) }

// NewFlowController builds an Eq. 7 controller from designed gains.
func NewFlowController(g FlowGains, maxRate float64) (*FlowController, error) {
	return control.NewFlowController(g, maxRate)
}

// Policy selects one of the systems of §VI (ParsePolicy names them all).
type Policy = policy.Policy

// Policy values.
const (
	// PolicyACES is System 1: LQR flow control, token-bucket CPU control,
	// max-flow forwarding.
	PolicyACES = policy.ACES
	// PolicyUDP is System 2: fire-and-forget forwarding, strict CPU
	// enforcement.
	PolicyUDP = policy.UDP
	// PolicyLockStep is System 3: min-flow blocking delivery.
	PolicyLockStep = policy.LockStep
)

// ParsePolicy converts a policy name ("aces", "udp", "lockstep", …).
func ParsePolicy(s string) (Policy, error) { return policy.Parse(s) }

// Report is the frozen result of a run: weighted throughput, latency
// distribution, loss accounting and stability indicators (§III-A, §IV).
type Report = metrics.Report

// The simulator substrate.
type (
	// SimConfig parameterizes one simulation run.
	SimConfig = streamsim.Config
	// Simulation is a configured simulator instance.
	Simulation = streamsim.Engine
)

// NewSimulation builds a simulator engine for fine-grained control (probes,
// custom instrumentation via Sim()).
func NewSimulation(cfg SimConfig) (*Simulation, error) { return streamsim.New(cfg) }

// Simulate builds and runs one simulation, returning its report.
func Simulate(cfg SimConfig) (Report, error) {
	eng, err := streamsim.New(cfg)
	if err != nil {
		return Report{}, err
	}
	return eng.Run(), nil
}

// The live runtime substrate.
type (
	// ClusterConfig parameterizes a live deployment.
	ClusterConfig = spc.Config
	// Cluster is a running deployment of goroutine PEs under Δt node
	// schedulers.
	Cluster = spc.Cluster
	// Processor is the user computation of one PE.
	Processor = spc.Processor
	// FuncProcessor adapts a function to Processor.
	FuncProcessor = spc.FuncProcessor
	// Link is a TCP-backed uplink between partitioned cluster processes.
	Link = spc.Link
	// Router fans a partitioned deployment out to several Links.
	Router = spc.Router
	// ResilientLink is a non-blocking, self-healing uplink: bounded async
	// outbox, automatic reconnection, loss accounting.
	ResilientLink = spc.ResilientLink
	// ResilientOptions tunes a ResilientLink's outbox, deadlines and
	// reconnect backoff.
	ResilientOptions = transport.ResilientOptions
	// DialFunc produces fresh connections for a ResilientLink (Dial on
	// the connecting side, Listener.Accept on the accepting side).
	DialFunc = transport.DialFunc
	// Conn is a framed transport connection.
	Conn = transport.Conn
	// Listener accepts framed transport connections.
	Listener = transport.Listener
	// HealthConfig enables heartbeat membership on a partitioned cluster
	// (ClusterConfig.Health).
	HealthConfig = spc.HealthConfig
	// RetargetConfig configures Cluster.StartRetarget, the online
	// calibrate→re-solve→retarget loop that closes the paper's adaptive
	// cycle on a live deployment.
	RetargetConfig = spc.RetargetConfig
	// FailoverConfig configures Cluster.StartFailover, the standby watch
	// that claims the next controller term after incumbent silence and
	// resumes the retarget loop warm from the last applied target set.
	FailoverConfig = spc.FailoverConfig
	// SafetyConfig configures ClusterConfig.Safety, the stale-target
	// safety mode: with no fresh target epoch within After, each tick
	// blends the applied allocation a bounded Step further toward the
	// declared-model allocation, hitlessly.
	SafetyConfig = spc.SafetyConfig
)

// NewCluster builds a live cluster; Run(duration) executes it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return spc.NewCluster(cfg) }

// Listen binds a TCP listener for cross-process deployments (":0" picks a
// free port).
func Listen(addr string) (*Listener, error) { return transport.Listen(addr) }

// Dial connects to a peer process's listener.
func Dial(addr string, timeout time.Duration) (*Conn, error) { return transport.Dial(addr, timeout) }

// NewLink wraps a framed connection as the uplink of a partitioned
// cluster.
func NewLink(conn *Conn) *Link { return spc.NewLink(conn) }

// NewRouter returns an empty multi-peer router.
func NewRouter() *Router { return spc.NewRouter() }

// NewResilientLink builds a self-healing uplink that (re)connects via
// dial; see spc.ResilientLink for the failure semantics.
func NewResilientLink(dial DialFunc, opts ResilientOptions) *ResilientLink {
	return spc.NewResilientLink(dial, opts)
}

// Observability: per-SDO tracing, live telemetry and the node debug
// endpoint (internal/obs).
type (
	// Tracer samples SDOs at ingress and collects one span per hop in a
	// fixed-size ring. Pass it to ClusterConfig.Tracer or SimConfig.Tracer.
	Tracer = obs.Tracer
	// Trace is a reassembled per-SDO trace.
	Trace = obs.Trace
	// TelemetryRegistry holds named live counters, gauges and histograms.
	TelemetryRegistry = obs.Registry
	// TelemetrySink receives periodic registry snapshots.
	TelemetrySink = obs.Sink
	// MemoryTelemetrySink retains snapshot frames in a bounded ring.
	MemoryTelemetrySink = obs.MemorySink
	// DebugOptions wires a node's inspection endpoint providers.
	DebugOptions = obs.DebugOptions
	// DebugServer is a running /debug/* HTTP endpoint.
	DebugServer = obs.DebugServer
)

// NewTracer builds a tracer sampling one in `every` ingress SDOs into a
// ring of `capacity` spans; salt decorrelates IDs between partitions.
func NewTracer(every, capacity int, salt int64) *Tracer {
	return obs.NewTracer(every, capacity, salt)
}

// NewTelemetryRegistry builds a live metric registry flushing snapshots to
// sink (nil = no periodic snapshots, Snapshot() still works).
func NewTelemetryRegistry(sink TelemetrySink) *TelemetryRegistry {
	return obs.NewRegistry(sink)
}

// NewMemoryTelemetrySink retains up to max snapshot frames (≤ 0 = default).
func NewMemoryTelemetrySink(max int) *MemoryTelemetrySink {
	return obs.NewMemorySink(max)
}

// ServeDebug binds addr and serves the /debug/* inspection endpoints.
func ServeDebug(addr string, opts DebugOptions) (*DebugServer, error) {
	return obs.ServeDebug(addr, opts)
}

// MergeTraces stitches per-process trace groups (e.g. the partitions of a
// distributed run) into one list keyed by trace ID.
func MergeTraces(parts ...[]Trace) []Trace { return obs.MergeTraces(parts...) }
