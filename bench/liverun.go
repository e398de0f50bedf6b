package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aces/internal/metrics"
	"aces/internal/transport"
)

// Each window of a live run is its own deployment: set up, warmed up,
// measured for one window, drained, checked and torn down. A node's Δt
// ticker starts when its scheduler goroutine first runs, so the relative
// tick phases of the nodes — which decide how long an SDO waits at each
// hop — are redrawn at every Start and then stay fixed. One long-lived
// deployment would report one draw; a fresh one per window makes the
// value over windows a value over draws. It also gives set-up time as many
// samples as there are windows.
func newWindowClock() *runClock {
	return &runClock{warm: liveWarm, win: liveWindow, nwin: 1}
}

// windowsFor is how many windows fit in a run of the given length.
func windowsFor(seconds int) int {
	n := int(time.Duration(seconds) * time.Second / liveWindow)
	if n < 1 {
		n = 1
	}
	return n
}

// setupRuns is how many times control_epoch and sim_scale set up; set-up
// time is the median. (A live workload sets up once per window.)
const setupRuns = 5

// minValidWindows is how many windows must survive the generator-honesty
// check: two thirds of them, rounded up.
func minValidWindows(nwin int) int { return (2*nwin + 2) / 3 }

// windowStat is one window's end-to-end numbers.
type windowStat struct {
	valid     bool    // neither late nor lossy: its numbers count
	late      bool    // the generator fell behind its schedule
	lossy     bool    // a lossless workload's deployment lost SDOs
	lateP99US float64 // generator lateness p99, µs
	opCPU     float64 // ns per delivered SDO
	goodput   float64 // delivered SDO/s
	doneFrac  float64
	p50, p99  float64 // ms
	allocs    float64 // per delivered SDO
	branches  []float64
}

// analyzeWindow turns the generator's two snapshots and the sinks'
// counters into the window's metrics. The window is slot 1.
func analyzeWindow(lw *liveWorkload, clk *runClock, out *liveOutcome) windowStat {
	const slot = 1
	g := out.gen
	var ws windowStat
	var delivered, ofDue int64
	var lat []int32
	for _, s := range out.d.sinks {
		delivered += s.n[slot]
		ofDue += s.due[slot]
		lat = append(lat, s.lat[slot]...)
		ws.branches = append(ws.branches, float64(s.n[slot])/clk.win.Seconds())
	}
	sortInt32(lat)
	late := sortInt32(append([]int32(nil), g.late[slot]...))
	ws.lateP99US = float64(percentileNearestRank(late, 99))
	ws.late = ws.lateP99US > lateLimitUS
	ws.valid = !ws.late && delivered > 0
	ws.goodput = float64(delivered) / clk.win.Seconds()
	// Of the deliveries expected from SDOs that were due in the window,
	// the share that arrived, whenever it arrived.
	ws.doneFrac = float64(ofDue) / float64(g.injected[slot]*int64(lw.fanout))
	// CPU and allocations are read at the snapshot instants, deliveries
	// counted over the nominal window; rescale to the same interval.
	a, b := g.snaps[0], g.snaps[1]
	perOp := clk.win.Seconds() / (b.at - a.at).Seconds() / math.Max(1, float64(delivered))
	ws.opCPU = float64(b.cpu-a.cpu) * perOp
	ws.allocs = float64(b.mallocs-a.mallocs) * perOp
	ws.p50 = float64(percentileNearestRank(lat, 50)) / 1e4
	ws.p99 = float64(percentileNearestRank(lat, 99)) / 1e4
	return ws
}

// liveRun accumulates the windows of one live run.
type liveRun struct {
	lw        *liveWorkload
	windows   []windowStat
	want      int       // valid windows the run set out to collect
	setups    []float64 // s
	ledger    conservation
	undrained int
	phases    map[string][]float64 // per-layer set-up timings, ms
	stopMS    []float64
	retained  []float64 // MB
	reports   []metrics.Report
	links     []transport.LinkStats
}

func newLiveRun(lw *liveWorkload) *liveRun {
	return &liveRun{lw: lw, phases: map[string][]float64{}}
}

// opCPU selects a window's CPU per op, for pick.
func opCPU(w windowStat) float64 { return w.opCPU }

// pick returns f over the valid windows.
func (r *liveRun) pick(f func(windowStat) float64) []float64 {
	var out []float64
	for _, w := range r.windows {
		if w.valid {
			out = append(out, f(w))
		}
	}
	return out
}

// window sets the workload up, runs one window against it and tears it
// down. first marks the run's first set-up, which is timed from process
// start so runtime and package initialisation are in it.
func (r *liveRun) window(tr *tracing, seed int64, first bool) (*liveOutcome, error) {
	clk := newWindowClock()
	t0 := time.Now()
	if first {
		t0 = processStart
	}
	d, err := r.lw.build(r.lw, clk, tr, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", r.lw.name, err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	out := driveLive(r.lw, clk, tr, d)
	var delivered int64
	for _, s := range d.sinks {
		delivered += s.total()
	}
	injected := sumInt64(out.gen.injected)
	admitted := injected
	if d.admitted != nil {
		admitted = d.admitted()
	}
	led := settle(injected, admitted, r.lw.fanout, delivered, out.reports)
	ws := analyzeWindow(r.lw, clk, out)
	// On a workload sized to lose nothing, a deployment that lost SDOs was
	// disturbed: some thread of the system was held off the processor for
	// longer than a buffer's worth of input (bigBuffer/rate, 0.3 s or more).
	// Like a window whose generator ran late, it is replaced.
	ws.lossy = r.lw.lossless && led.delivered < led.expected
	ws.valid = ws.valid && !ws.lossy
	r.windows = append(r.windows, ws)
	r.ledger.add(led)
	if !out.drained {
		r.undrained++
	}
	for k, v := range d.phases {
		r.phases[k] = append(r.phases[k], v)
	}
	r.stopMS = append(r.stopMS, ms(out.stopTime))
	r.retained = append(r.retained, out.retained)
	r.reports = append(r.reports, out.reports...)
	if out.link != nil {
		r.links = append(r.links, *out.link)
	}
	// Collect the deployment just torn down before the next one is built,
	// so peak RSS does not depend on when the collector happens to run.
	runtime.GC()
	return out, nil
}

// retainedMB forces a collection and returns the heap and goroutine
// stacks still in use: what the workload holds on to while it is set up.
// Unlike peak RSS it does not depend on when the collector happened to
// run against a stream of short-lived garbage.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc+ms.StackInuse) / (1 << 20)
}

// windowsUntilValid runs windows until want of them are valid. A window
// in which the generator could not keep its schedule, or a lossless
// workload lost SDOs (the process or one of its threads was descheduled:
// on a shared VM that happens in bursts), is replaced, up to half as many
// again; check then judges what is left.
func (r *liveRun) windowsUntilValid(want int, window func(k int) error) error {
	for k := 0; k < want+want/2 && r.validCount() < want; k++ {
		if err := window(k); err != nil {
			return err
		}
	}
	r.want = want
	return nil
}

func (r *liveRun) validCount() int {
	return len(r.pick(func(windowStat) float64 { return 0 }))
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// check applies the live correctness gates to a finished run.
func (r *liveRun) check(res *Result) {
	lw, led := r.lw, r.ledger
	res.Attempted = led.expected
	if r.undrained > 0 {
		res.fail("buffers did not drain within the limit after the generator stopped in %d windows", r.undrained)
	}
	if u := led.unaccounted(); u != 0 {
		res.fail("conservation: injected %d x fan-out %d = %d, delivered %d + %d lost to %d input and %d in-flight drops leaves %d unaccounted",
			led.injected, lw.fanout, led.expected, led.delivered, led.lost, led.inputDrops, led.inFlightDrops, u)
	}
	valid := r.validCount()
	if valid < len(r.windows) {
		var late, lossy int
		var lateness []float64
		for _, w := range r.windows {
			if w.late {
				late++
			}
			if w.lossy {
				lossy++
			}
			lateness = append(lateness, w.lateP99US)
		}
		res.note("%d of %d windows were disturbed and do not count: in %d the generator's lateness p99 passed %d ms, %d lost SDOs on a workload sized to lose none",
			len(r.windows)-valid, len(r.windows), late, lateLimitUS/1000, lossy)
		if need := minValidWindows(r.want); valid < need {
			res.fail("only %d windows were undisturbed, %d are needed; lateness p99 per window (us): %v", valid, need, lateness)
		}
	}
	// An SDO nobody can account for has failed. Shed SDOs are the system's
	// designed answer to overload and are reported as 1 - done_frac; on a
	// lossless workload any loss disturbs its window (above).
	res.Failed = int64(math.Abs(float64(led.unaccounted())))
	if lw.lossless {
		return
	}
	// The model check on fanout_overload: each branch delivers within 15%
	// of branchCPU/cost and the branches keep the 4:2:2:1 order.
	rates := make([]float64, len(branchCosts))
	for b := range rates {
		rates[b] = median(r.pick(func(w windowStat) float64 { return w.branches[b] }))
		want := branchCPU / branchCosts[b]
		if math.Abs(rates[b]-want) > 0.15*want {
			res.fail("branch %d goodput %.0f SDO/s is not within 15%% of the model's %.0f", b, rates[b], want)
		}
	}
	if !(rates[0] > rates[1] && rates[0] > rates[2] && rates[1] > rates[3] && rates[2] > rates[3]) {
		res.fail("branch goodputs %.0f are not in the 4:2:2:1 order", rates)
	}
}

// runLive is the untraced run of a live workload: every end-to-end
// metric, per window, reported as the median (the latencies: the midmean)
// over valid windows.
func runLive(lw *liveWorkload, o options) (*Result, error) {
	res := newResult(o)
	r := newLiveRun(lw)
	if err := r.windowsUntilValid(windowsFor(o.seconds), func(k int) error {
		_, err := r.window(nil, o.seed, k == 0)
		return err
	}); err != nil {
		return nil, err
	}
	r.check(res)
	res.setSummary("setup_s", summarize(r.setups))
	res.setSummary("ops_per_s", summarize(r.pick(func(w windowStat) float64 { return w.goodput })))
	res.setSummary("done_frac", summarize(r.pick(func(w windowStat) float64 { return w.doneFrac })))
	// Window latencies fall in two groups: the node tickers of one process
	// start within a fraction of a millisecond of each other, and the order
	// they happen to fire in decides whether the slowest SDOs take three
	// ticks or four (chain_inproc p99: 30.5-32 ms or 35.5-39.5 ms, about
	// half the windows each). A median over such windows jumps between the
	// groups from run to run; the midmean moves with their shares.
	res.setSummary("latency_p50_ms", summarizeMid(r.pick(func(w windowStat) float64 { return w.p50 })))
	res.setSummary("latency_p99_ms", summarizeMid(r.pick(func(w windowStat) float64 { return w.p99 })))
	res.setSummary("allocs_per_op", summarize(r.pick(func(w windowStat) float64 { return math.Max(allocFloor, w.allocs) })))
	res.setSummary("retained_mb", summarize(r.retained))
	return res, nil
}
