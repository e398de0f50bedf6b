package aces

import (
	"io"
	"time"

	"aces/internal/chaos"
	"aces/internal/control"
	"aces/internal/experiments"
	"aces/internal/graph"
	"aces/internal/hier"
	"aces/internal/metrics"
	"aces/internal/obs"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/sim"
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
	BurstTrace         = graph.BurstTrace
	BurstHeavyTail     = graph.BurstHeavyTail
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

// Workload models.
type (
	// ServiceParams is the two-state Markov-modulated PE cost model
	// (§VI-B): per-SDO costs T0/T1, stationary slow fraction ρ, dwell
	// scale λ_S and output multiplicity λ_m.
	ServiceParams = workload.ServiceParams
	// ArrivalProcess generates source inter-arrival times.
	ArrivalProcess = workload.ArrivalProcess
)

// DefaultServiceParams returns the paper's §VI-C settings: T0 = 2 ms,
// T1 = 20 ms, ρ = 0.5, λ_S = 10, λ_m = 1.
func DefaultServiceParams() ServiceParams { return workload.DefaultServiceParams() }

// Tier 1: the global optimizer.
type (
	// OptimizeConfig tunes the tier-1 solver.
	OptimizeConfig = optimize.Config
	// Allocation is the tier-1 result: CPU targets and fluid rates.
	Allocation = optimize.Allocation
	// Utility is the concave utility shaping the objective.
	Utility = optimize.Utility
	// LinearUtility is U(x) = x (the paper's weighted throughput itself).
	LinearUtility = optimize.LinearUtility
	// LogUtility is U(x) = log(1 + x/Scale).
	LogUtility = optimize.LogUtility
	// ExpUtility is U(x) = 1 − e^{−x/Scale}.
	ExpUtility = optimize.ExpUtility
	// Calibrator maintains per-PE RLS estimates of the rate model
	// h_j(c̄) = a_j·c̄ − b_j from live telemetry and produces a calibrated
	// topology for re-solving.
	Calibrator = optimize.Calibrator
	// RateModel is one PE's calibrated (a, b) estimate.
	RateModel = optimize.RateModel
	// RLS is the recursive-least-squares estimator behind Calibrator.
	RLS = optimize.RLS
	// ElasticAllocation is the elastic tier-1 result: per-replica-slot CPU
	// targets plus the chosen replica count per PE.
	ElasticAllocation = optimize.ElasticAllocation
	// GradientMode selects the solver's gradient engine
	// (OptimizeConfig.Gradient).
	GradientMode = optimize.GradientMode
)

// Gradient engines for OptimizeConfig.Gradient.
const (
	// GradientAnalytic (the default) computes the exact subgradient by one
	// reverse-mode sweep over the fluid DAG per iteration — O(edges)
	// instead of one propagation per PE.
	GradientAnalytic = optimize.GradientAnalytic
	// GradientFiniteDiff is the central-difference reference engine the
	// analytic adjoint is validated against; it costs p propagations per
	// iteration and exists for cross-checks, not production solves.
	GradientFiniteDiff = optimize.GradientFiniteDiff
)

// Optimize computes time-averaged CPU targets maximizing the weighted
// throughput of the topology (paper §V-B).
func Optimize(t *Topology, cfg OptimizeConfig) (*Allocation, error) {
	return optimize.Solve(t, cfg)
}

// OptimizeElastic is the elastic tier-1 solve: it additionally chooses how
// many replica slots of each elastic PE (MaxReplicas > 1) to activate, and
// how much CPU each active slot gets on its node. Apply the result with
// Cluster.SetReplicaTargets.
func OptimizeElastic(t *Topology, cfg OptimizeConfig) (*ElasticAllocation, error) {
	return optimize.SolveElastic(t, cfg)
}

// NewCalibrator builds a rate-model calibrator over a deployed topology;
// lambda is the RLS forgetting factor (0 → default), minSamples gates how
// many observation windows a PE needs before its estimate replaces the
// declared model.
func NewCalibrator(t *Topology, lambda float64, minSamples int) *Calibrator {
	return optimize.NewCalibrator(t, lambda, minSamples)
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

// Policies (the three systems of §VI plus ablations).
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
	// PolicyACESMinFlow is the min-flow ablation of ACES.
	PolicyACESMinFlow = policy.ACESMinFlow
	// PolicyACESStrictCPU is the strict-CPU ablation of ACES.
	PolicyACESStrictCPU = policy.ACESStrictCPU
	// PolicyLoadShed is the §II related-work comparator: UDP forwarding
	// with threshold shedding at 80% of the buffer.
	PolicyLoadShed = policy.LoadShed
)

// ParsePolicy converts a policy name ("aces", "udp", "lockstep", …).
func ParsePolicy(s string) (Policy, error) { return policy.Parse(s) }

// Metrics.
type (
	// Report is the frozen result of a run: weighted throughput, latency
	// distribution, loss accounting and stability indicators (§III-A, §IV).
	Report = metrics.Report
)

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
	// Synthetic is the §VI-B evaluation workload processor.
	Synthetic = spc.Synthetic
	// Passthrough forwards SDOs unchanged.
	Passthrough = spc.Passthrough
	// RemoteLink carries SDOs and feedback between partitioned cluster
	// processes.
	RemoteLink = spc.RemoteLink
	// Link is a TCP-backed RemoteLink.
	Link = spc.Link
	// Router fans a partitioned deployment out to several Links.
	Router = spc.Router
	// ResilientLink is a non-blocking, self-healing RemoteLink: bounded
	// async outbox, automatic reconnection, loss accounting.
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
	// SupervisorOptions tunes per-PE crash recovery: restart budget and
	// backoff window (ClusterConfig.Supervisor).
	SupervisorOptions = spc.SupervisorOptions
	// HealthStatus is a node's failure-domain snapshot: peer membership,
	// per-PE restart counts and breaker states (Cluster.Health, served at
	// /debug/health).
	HealthStatus = spc.HealthStatus
	// PEHealth is one PE's supervision state within a HealthStatus.
	PEHealth = spc.PEHealth
	// PanicInjector arms deterministic processor crashes for fault drills.
	PanicInjector = spc.PanicInjector
	// RetargetConfig configures Cluster.StartRetarget, the online
	// calibrate→re-solve→retarget loop that closes the paper's adaptive
	// cycle on a live deployment.
	RetargetConfig = spc.RetargetConfig
	// ControlSender is the uplink extension carrying heartbeats, (term,
	// epoch)-stamped target sets and dissemination acks to peer processes
	// (implemented by Link, Router and ResilientLink).
	ControlSender = spc.ControlSender
	// StepCost is a deterministic processor whose per-SDO cost steps at a
	// scheduled virtual time — the canonical workload drift for exercising
	// the adaptive loop.
	StepCost = spc.StepCost
	// FailoverConfig configures Cluster.StartFailover, the standby watch
	// that claims the next controller term after incumbent silence and
	// resumes the retarget loop warm from the last applied target set.
	FailoverConfig = spc.FailoverConfig
	// SafetyConfig configures ClusterConfig.Safety, the stale-target
	// safety mode: with no fresh target epoch within After, each tick
	// blends the applied allocation a bounded Step further toward the
	// declared-model allocation, hitlessly.
	SafetyConfig = spc.SafetyConfig
	// HierRepair configures Cluster.EnableHierRepair, the self-healing
	// dissemination tree: ordered backup parents adopted on parent
	// silence, plus ack-lag-driven retransmission to descendants.
	HierRepair = spc.HierRepair
)

// ErrStaleEpoch reports a SetTargets whose epoch is not strictly newer
// than the applied one.
var ErrStaleEpoch = spc.ErrStaleEpoch

// ErrDeposedTerm reports a target set carrying an older controller term
// than the applied one; it wraps ErrStaleEpoch so existing stale-frame
// handling drops it silently.
var ErrDeposedTerm = spc.ErrDeposedTerm

// NewCluster builds a live cluster; Run(duration) executes it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return spc.NewCluster(cfg) }

// Listen binds a TCP listener for cross-process deployments (":0" picks a
// free port).
func Listen(addr string) (*Listener, error) { return transport.Listen(addr) }

// Dial connects to a peer process's listener.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	return transport.Dial(addr, timeout)
}

// NewLink wraps a framed connection as a RemoteLink for partitioned
// clusters.
func NewLink(conn *Conn) *Link { return spc.NewLink(conn) }

// NewRouter returns an empty multi-peer router.
func NewRouter() *Router { return spc.NewRouter() }

// NewResilientLink builds a self-healing RemoteLink that (re)connects via
// dial; see spc.ResilientLink for the failure semantics.
func NewResilientLink(dial DialFunc, opts ResilientOptions) *ResilientLink {
	return spc.NewResilientLink(dial, opts)
}

// NewPassthrough returns a Processor forwarding every SDO on stream out.
func NewPassthrough(out StreamID) *Passthrough { return spc.NewPassthrough(out) }

// NewSynthetic returns the two-state synthetic workload Processor.
func NewSynthetic(params ServiceParams, out StreamID, seed int64) *Synthetic {
	return spc.NewSynthetic(params, out, sim.NewRand(seed))
}

// NewPanicInjector wraps a Processor so that armed crashes panic on the
// next processed SDO — the scriptable fault for chaos drills.
func NewPanicInjector(inner Processor) *PanicInjector { return spc.NewPanicInjector(inner) }

// NewStepCost returns a Processor emitting on stream out whose per-SDO
// cost is base before virtual time at and stepped from then on.
func NewStepCost(out StreamID, base, stepped, at float64) *StepCost {
	return spc.NewStepCost(out, base, stepped, at)
}

// The hierarchical control plane (internal/hier): region-decomposed
// tier-1 solves coordinated by a thin root through priced cut edges,
// with targets disseminated down a spanning tree of processes.
type (
	// HierPartitionConfig parameterizes the region partition of a PE
	// graph.
	HierPartitionConfig = hier.PartitionConfig
	// HierRegion is one region of a decomposition.
	HierRegion = hier.Region
	// HierDecomposition is a complete region partition of a topology.
	HierDecomposition = hier.Decomposition
	// HierConfig tunes the hierarchical tier-1 solve.
	HierConfig = hier.Config
	// HierAllocation is the assembled, full-topology-shaped output of a
	// hierarchical solve.
	HierAllocation = hier.Allocation
	// HierRegionStat reports one region's share of a hierarchical solve.
	HierRegionStat = hier.RegionStat
	// HierRetargetConfig switches Cluster.StartRetarget to the
	// hierarchical solver (RetargetConfig.Hier).
	HierRetargetConfig = spc.HierRetarget
)

// HierPartition decomposes a topology into regions, minimizing the
// stream volume crossing region boundaries under a per-region PE budget.
func HierPartition(t *Topology, cfg HierPartitionConfig) (*HierDecomposition, error) {
	return hier.Partition(t, cfg)
}

// HierSolve runs the hierarchical tier-1 solve over a decomposition; the
// result is shaped like the monolithic Optimize output.
func HierSolve(t *Topology, d *HierDecomposition, cfg HierConfig) (*HierAllocation, error) {
	return hier.Solve(t, d, cfg)
}

// WriteHierDOT renders a region decomposition as a Graphviz digraph with
// cut edges highlighted (aces-topo -regions uses it).
func WriteHierDOT(w io.Writer, t *Topology, d *HierDecomposition, title string) error {
	return hier.WriteDOT(w, t, d, title)
}

// The deterministic chaos harness (internal/chaos): seeded fault
// schedules replayed against a deployment's virtual clock.
type (
	// ChaosSchedule is a reproducible fault script.
	ChaosSchedule = chaos.Schedule
	// ChaosEvent is one scheduled fault.
	ChaosEvent = chaos.Event
	// ChaosInjector applies faults to a concrete deployment.
	ChaosInjector = chaos.Injector
	// ChaosFuncInjector adapts closures to ChaosInjector.
	ChaosFuncInjector = chaos.FuncInjector
	// ChaosRunner replays a schedule against virtual time.
	ChaosRunner = chaos.Runner
	// ChaosGenConfig parameterizes GenerateChaos.
	ChaosGenConfig = chaos.GenConfig
)

// GenerateChaos draws a seeded, reproducible fault schedule.
func GenerateChaos(cfg ChaosGenConfig) (ChaosSchedule, error) { return chaos.Generate(cfg) }

// NewChaosRunner builds a runner that fires a schedule's events as the
// deployment's virtual clock passes them.
func NewChaosRunner(s ChaosSchedule) *ChaosRunner { return chaos.NewRunner(s) }

// Observability: per-SDO tracing, live telemetry and the node debug
// endpoint (internal/obs).
type (
	// Tracer samples SDOs at ingress and collects one span per hop in a
	// fixed-size ring. Pass it to ClusterConfig.Tracer or SimConfig.Tracer.
	Tracer = obs.Tracer
	// Span is one hop of a sampled SDO's journey.
	Span = obs.Span
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

// Experiments: the harness regenerating the paper's evaluation.
type (
	// ExperimentOptions scales the experiment suite.
	ExperimentOptions = experiments.Options
)

// DefaultExperiments returns the paper-scale configuration (200 PEs / 80
// nodes, multiple seeds).
func DefaultExperiments() ExperimentOptions { return experiments.Default() }

// QuickExperiments returns a fast configuration for tests and benchmarks.
func QuickExperiments() ExperimentOptions { return experiments.Quick() }
