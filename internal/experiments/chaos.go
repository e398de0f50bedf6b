package experiments

import (
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aces/internal/chaos"
	"aces/internal/graph"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/transport"
	"aces/internal/workload"
)

// ChaosOptions scales E10, the failure-domain experiment: a partitioned
// 3-node deployment is driven through a seeded fault schedule (one PE
// panic, one severed uplink) and the run is judged on how deep the
// throughput dips and how fast it recovers. The zero value picks defaults.
type ChaosOptions struct {
	// Seed drives the fault schedule (times and targets) and workloads.
	Seed int64
	// TimeScale is the virtual-over-wall speedup (default 10).
	TimeScale float64
	// PreFault is the healthy settling horizon before the fault window
	// opens, in virtual seconds (default 6; must exceed the warmup of 1).
	PreFault float64
	// FaultWindow is the width of the window faults are drawn in
	// (default 2).
	FaultWindow float64
	// Outage is the sever's network outage, virtual seconds (default 4).
	Outage float64
	// Post is the observation horizon after the last fault has healed
	// (default 10).
	Post float64
	// Window is the throughput-sampling window (default 1).
	Window float64
	// HeartbeatEvery is the membership beacon period (default 0.2; the
	// detector marks peers suspect at 3× and dead at 6× this).
	HeartbeatEvery float64
}

func (o *ChaosOptions) fillDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 10
	}
	if o.PreFault <= 1 {
		o.PreFault = 6
	}
	if o.FaultWindow <= 0 {
		o.FaultWindow = 2
	}
	if o.Outage <= 0 {
		o.Outage = 4
	}
	if o.Post <= 0 {
		o.Post = 10
	}
	if o.Window <= 0 {
		o.Window = 1
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 0.2
	}
}

// ChaosRow is one chaos run's outcome. Times are virtual seconds from run
// start; rates are combined egress deliveries per virtual second.
type ChaosRow struct {
	Seed     int64          `json:"seed"`
	Schedule chaos.Schedule `json:"schedule"`
	// PreRate is the healthy throughput over the window ending at the
	// first fault; DipRate is the worst window during the fault era;
	// PostRate is the last full window of the run.
	PreRate  float64 `json:"pre_rate"`
	DipRate  float64 `json:"dip_rate"`
	PostRate float64 `json:"post_rate"`
	// DipPct is 100·(1 − DipRate/PreRate) — how deep the degradation cut.
	DipPct float64 `json:"dip_pct"`
	// FaultStart and HealEnd bracket the fault era; RecoverAt is the
	// start of the first post-heal window back at ≥ 90% of PreRate (−1 if
	// never), and TimeToRecover is RecoverAt − HealEnd.
	FaultStart    float64 `json:"fault_start"`
	HealEnd       float64 `json:"heal_end"`
	RecoverAt     float64 `json:"recover_at"`
	TimeToRecover float64 `json:"time_to_recover_s"`
	// Restarts counts supervisor recoveries; Reconnects counts uplink
	// re-establishments; BreakersOpen counts parked PEs at run end.
	Restarts     int64 `json:"restarts"`
	Reconnects   int64 `json:"reconnects"`
	BreakersOpen int   `json:"breakers_open"`
	// MembersAlive reports that both processes judged every peer node
	// alive at run end; PEsRunning that no breaker was open.
	MembersAlive bool `json:"members_alive"`
	PEsRunning   bool `json:"pes_running"`
	// Recovered is the run verdict: members alive, PEs running, and the
	// post-heal throughput within 10% of pre-fault.
	Recovered bool `json:"recovered"`
}

// chaosTopo is the E10 deployment: source → PE0 (node 0) fanning out to a
// local egress PE1 (node 1) and a remote egress PE2 (node 2). Process A
// hosts nodes {0, 1}; process B hosts node {2}; one resilient uplink pair
// crosses the boundary.
func chaosTopo() (*graph.Topology, error) {
	topo := graph.New(3, 50)
	det := chaosService(0.001)
	p0 := topo.AddPE(graph.PE{Service: det, Node: 0})
	p1 := topo.AddPE(graph.PE{Service: det, Node: 1, Weight: 1})
	p2 := topo.AddPE(graph.PE{Service: det, Node: 2, Weight: 1})
	if err := topo.Connect(p0, p1); err != nil {
		return nil, err
	}
	if err := topo.Connect(p0, p2); err != nil {
		return nil, err
	}
	if err := topo.AddSource(graph.Source{
		Stream: 1, Target: p0, Rate: 150,
		Burst: graph.BurstSpec{Kind: graph.BurstDeterministic},
	}); err != nil {
		return nil, err
	}
	return topo, nil
}

// chaosService is a deterministic service profile (no state switching) so
// E10's dips are fault-caused, not workload-caused.
func chaosService(cost float64) workload.ServiceParams {
	return workload.ServiceParams{T0: cost, T1: cost, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
}

// RunChaos executes E10 once: build the partitioned deployment over real
// loopback TCP, settle, replay the seeded fault schedule (one PE panic in
// process A, one severed uplink with the network held down), and measure
// dip and time-to-recover from the combined egress delivery series.
func RunChaos(o ChaosOptions) (ChaosRow, error) {
	o.fillDefaults()
	topo, err := chaosTopo()
	if err != nil {
		return ChaosRow{}, err
	}
	cpu := []float64{0.5, 0.5, 0.5}

	sched, err := chaos.Generate(chaos.GenConfig{
		Seed:  o.Seed,
		Start: o.PreFault, End: o.PreFault + o.FaultWindow,
		Panics: 1, Severs: 1,
		PEs: []int32{1}, Links: []int32{0},
		OutageMin: o.Outage, OutageMax: o.Outage,
	})
	if err != nil {
		return ChaosRow{}, err
	}
	row := ChaosRow{Seed: o.Seed, Schedule: sched, RecoverAt: -1, TimeToRecover: -1}
	row.FaultStart = sched.Events[0].At
	row.HealEnd = sched.End()

	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return ChaosRow{}, err
	}
	defer lis.Close()

	// Process A's dial path is fault-injected: SeverLink kills the live
	// pipe and holds the "network" down so redials fail until heal.
	var flaky atomic.Pointer[transport.FlakyConn]
	var netDown atomic.Bool
	dialA := func() (*transport.Conn, error) {
		if netDown.Load() {
			return nil, errors.New("chaos: injected outage")
		}
		raw, err := net.DialTimeout("tcp", lis.Addr(), time.Second)
		if err != nil {
			return nil, err
		}
		f := transport.WrapFlaky(raw)
		flaky.Store(f)
		return transport.NewConn(f), nil
	}
	linkOpts := transport.ResilientOptions{
		QueueSize:    128,
		WriteTimeout: 50 * time.Millisecond,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		BatchMax:     32,
	}
	linkA := spc.NewResilientLink(dialA, linkOpts)
	defer linkA.Close()
	linkB := spc.NewResilientLink(func() (*transport.Conn, error) {
		return lis.Accept()
	}, linkOpts)
	defer linkB.Close()

	inj := spc.NewPanicInjector(spc.NewPassthrough(2))
	hc := &spc.HealthConfig{Every: o.HeartbeatEvery}
	mk := func(nodes []sdo.NodeID, uplink spc.RemoteLink, procs map[sdo.PEID]spc.Processor) (*spc.Cluster, error) {
		return spc.NewCluster(spc.Config{
			Topo: topo, Policy: policy.ACES, CPU: cpu,
			TimeScale: o.TimeScale, Warmup: 1, Seed: o.Seed,
			LocalNodes: nodes, Uplink: uplink,
			Health:     hc,
			Processors: procs,
		})
	}
	a, err := mk([]sdo.NodeID{0, 1}, linkA, map[sdo.PEID]spc.Processor{1: inj})
	if err != nil {
		return ChaosRow{}, err
	}
	b, err := mk([]sdo.NodeID{2}, linkB, nil)
	if err != nil {
		return ChaosRow{}, err
	}
	var serveWG sync.WaitGroup
	serveWG.Add(2)
	go func() {
		defer serveWG.Done()
		_ = linkA.Serve(a)
	}()
	go func() {
		defer serveWG.Done()
		_ = linkB.Serve(b)
	}()
	if err := a.Start(); err != nil {
		return ChaosRow{}, err
	}
	if err := b.Start(); err != nil {
		return ChaosRow{}, err
	}

	injector := chaos.FuncInjector{
		OnPanicPE: func(pe int32) {
			if pe == 1 {
				inj.Arm()
			}
		},
		OnSeverLink: func(_ int32, d float64) {
			netDown.Store(true)
			if f := flaky.Load(); f != nil {
				f.Sever()
			}
			time.AfterFunc(time.Duration(d/o.TimeScale*float64(time.Second)), func() {
				netDown.Store(false)
			})
		},
		// This deployment has one boundary: killing node 2 is the same
		// outage as severing the only uplink.
		OnKillNode: nil,
	}

	// Sample the combined egress delivery count on process A's virtual
	// clock and replay the schedule against it.
	type sample struct {
		t float64
		n int64
	}
	var series []sample
	runner := chaos.NewRunner(sched)
	horizon := row.HealEnd + o.Post
	for {
		now := a.Now()
		runner.Step(now, injector)
		series = append(series, sample{t: now, n: a.DeliveredByPE()[1] + b.DeliveredByPE()[2]})
		if now >= horizon {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	healthA, healthB := a.Health(), b.Health()
	endA := a.Now()
	a.Stop()
	b.Stop()
	repA := a.Report(endA)

	// Windowed rates from the cumulative series.
	rate := func(t0, t1 float64) float64 {
		i := sort.Search(len(series), func(i int) bool { return series[i].t >= t0 })
		j := sort.Search(len(series), func(i int) bool { return series[i].t >= t1 })
		if j >= len(series) {
			j = len(series) - 1
		}
		if i >= j || series[j].t <= series[i].t {
			return 0
		}
		return float64(series[j].n-series[i].n) / (series[j].t - series[i].t)
	}
	row.PreRate = rate(row.FaultStart-o.Window, row.FaultStart)
	row.DipRate = row.PreRate
	for _, s := range series {
		if s.t < row.FaultStart || s.t > row.HealEnd+o.Window {
			continue
		}
		if r := rate(s.t, s.t+o.Window); r < row.DipRate {
			row.DipRate = r
		}
	}
	if row.PreRate > 0 {
		row.DipPct = 100 * (1 - row.DipRate/row.PreRate)
	}
	row.PostRate = rate(horizon-o.Window, horizon)
	for _, s := range series {
		if s.t < row.HealEnd {
			continue
		}
		if rate(s.t, s.t+o.Window) >= 0.9*row.PreRate {
			row.RecoverAt = s.t
			row.TimeToRecover = s.t - row.HealEnd
			break
		}
	}

	row.Restarts = repA.PERestarts
	row.BreakersOpen = repA.BreakersOpen
	if len(repA.Links) > 0 {
		row.Reconnects = repA.Links[0].Reconnects
	}
	row.MembersAlive = healthA.AllAlive && healthB.AllAlive
	row.PEsRunning = true
	for _, st := range append(append([]spc.PEHealth(nil), healthA.PEs...), healthB.PEs...) {
		if st.BreakerOpen {
			row.PEsRunning = false
		}
	}
	row.Recovered = row.MembersAlive && row.PEsRunning &&
		row.RecoverAt >= 0 && row.PostRate >= 0.9*row.PreRate

	lis.Close()
	linkA.Close()
	linkB.Close()
	serveWG.Wait()
	return row, nil
}
