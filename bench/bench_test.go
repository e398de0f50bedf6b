package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"aces/internal/metrics"
)

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Value != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Fatalf("odd sample: %+v", s)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s.Value != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Fatalf("even sample: %+v", s)
	}
	if got := summarize([]float64{7}); got.Value != 7 || got.Q1 != 7 || got.Q3 != 7 {
		t.Fatalf("single sample: %+v", got)
	}
	if !math.IsNaN(summarize(nil).Value) {
		t.Fatal("an empty sample has no median")
	}
	if got := (Summary{Value: 10, Q1: 9, Q3: 11.5}).spreadFrac(); got != 0.25 {
		t.Fatalf("spreadFrac = %v, want 0.25", got)
	}
	// The midmean is the mean of the middle half; a sample straddling a
	// quartile counts by the share of it inside.
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{8, 1, 7, 2, 6, 3, 5, 4}, 4.5},                                 // 3, 4, 5, 6
		{[]float64{1, 2, 3, 4, 5}, 3},                                            // 0.75*2 + 3 + 0.75*4 over 2.5
		{[]float64{7}, 7},                                                        //
		{[]float64{31, 31, 31, 31, 31, 38, 38, 38}, 32.75},                       // two groups: between them,
		{[]float64{31, 31, 31, 38, 38, 38, 38, 38}, 36.25},                       // moving with their shares
		{[]float64{31, 31, 31, 31, 38, 38, 38, 1000}, (31 + 31 + 38 + 38) / 4.0}, // and blind to an outlier
	} {
		if got := midmean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("midmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(midmean(nil)) {
		t.Error("an empty sample has no midmean")
	}
	if s := summarizeMid([]float64{1, 2, 3, 4, 100}); s.Value != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarizeMid: %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int32, 100)
	for i := range xs {
		xs[i] = int32(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int32
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentileNearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: p99 of 150 samples is the 149th.
	if got := percentileNearestRank(xs[:50], 99); got != 50 {
		t.Errorf("p99 of 1..50 = %d, want 50", got)
	}
	if got := percentileNearestRank(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %d", got)
	}
	if got := sortInt32([]int32{3, 1, 2}); got[0] != 1 || got[2] != 3 {
		t.Errorf("sortInt32 = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: two adjacent children and a nested grandchild
		{start: 10, end: 30, parent: 0},    // 1
		{start: 30, end: 60, parent: 0},    // 2: adjacent to 1
		{start: 35, end: 50, parent: 2},    // 3: nested in 2
		{start: 200, end: 240, parent: -1}, // 4: a child that overruns its parent
		{start: 230, end: 260, parent: 4},  // 5
		{start: 300, end: 400, parent: -1}, // 6: overlapping children count once
		{start: 310, end: 350, parent: 6},  // 7
		{start: 340, end: 360, parent: 6},  // 8
	}
	want := []int64{50, 20, 15, 15, 30, 30, 50, 40, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	const rate = 200_000.0
	if got := dueOffset(0, rate); got != 0 {
		t.Errorf("SDO 0 due at %v", got)
	}
	if got := dueOffset(200_000, rate); got != time.Second {
		t.Errorf("SDO 200000 due at %v, want 1s", got)
	}
	if got := dueOffset(1, rate); got != 5*time.Microsecond {
		t.Errorf("SDO 1 due at %v, want 5µs", got)
	}
	// The schedule does not depend on what was sent before: due counts
	// are a pure function of elapsed time.
	if got := dueCount(0, rate); got != 1 {
		t.Errorf("due at t=0: %d, want 1 (SDO 0)", got)
	}
	if got := dueCount(time.Second, rate); got != 200_001 {
		t.Errorf("due at t=1s: %d, want 200001", got)
	}
	if got := dueCount(-time.Second, rate); got != 0 {
		t.Errorf("due before the start: %d", got)
	}
	for i := int64(0); i < 1000; i += 37 {
		if n := dueCount(dueOffset(i, rate), rate); n < i+1 || n > i+2 {
			t.Errorf("SDO %d is not due at its own due time (count %d)", i, n)
		}
	}
	clk := &runClock{warm: 500 * time.Millisecond, win: time.Second, nwin: 2}
	for _, c := range []struct {
		el   time.Duration
		slot int
	}{{0, 0}, {499 * time.Millisecond, 0}, {500 * time.Millisecond, 1}, {1499 * time.Millisecond, 1},
		{1500 * time.Millisecond, 2}, {2500 * time.Millisecond, 3}, {time.Hour, 3}} {
		if got := clk.slotAt(c.el); got != c.slot {
			t.Errorf("slotAt(%v) = %d, want %d", c.el, got, c.slot)
		}
	}
	if clk.total() != 2500*time.Millisecond || clk.slots() != 4 {
		t.Errorf("total %v slots %d", clk.total(), clk.slots())
	}
	if windowsFor(10) != 20 || windowsFor(1) != 2 || minValidWindows(10) != 7 || minValidWindows(1) != 1 || tracedWindows(16, 4) != 8 || tracedWindows(2, 4) != minTracedWindows {
		t.Error("window arithmetic")
	}
}

func TestConservationLedger(t *testing.T) {
	reps := func(input, inflight int64) []metrics.Report {
		return []metrics.Report{{InputDrops: input, InFlightDrops: inflight}}
	}
	// A chain: every drop is one lost delivery.
	c := settle(1000, 1000, 1, 990, reps(0, 10))
	if c.expected != 1000 || c.lost != 10 || c.unaccounted() != 0 {
		t.Errorf("chain: %+v unaccounted %d", c, c.unaccounted())
	}
	// A fan-out of 4: 100 of 1000 SDOs drop ahead of the split (400 lost
	// deliveries for 100 counted drops), 1500 drop below it.
	c = settle(1000, 900, 4, 4000-400-1500, reps(0, 100+1500))
	if c.expected != 4000 || c.lost != 1900 || c.unaccounted() != 0 {
		t.Errorf("fan-out: %+v unaccounted %d", c, c.unaccounted())
	}
	// A delivery nobody accounts for shows.
	c = settle(1000, 900, 4, 4000-400-1500-7, reps(0, 1600))
	if c.unaccounted() != 7 {
		t.Errorf("unaccounted = %d, want 7", c.unaccounted())
	}
	var sum conservation
	sum.add(c)
	sum.add(c)
	if sum.unaccounted() != 14 || sum.injected != 2000 {
		t.Errorf("ledger sum: %+v", sum)
	}
}

func TestSpanJoinCoversAnSDOsLife(t *testing.T) {
	// One traced SDO through inject → PE 0 → PE 1 (the sink), due at t=0.
	const tr = 1<<32 | 1
	gen := newSpanBuf(8)
	gen.add(tr, spanInject, 0, -1, 100, 150)
	pe0 := newSpanBuf(8)
	p := pe0.open(tr, spanProcess, 0, -1, 1150)
	pe0.add(tr, spanEmit, 0, p, 1160, 1190)
	pe0.close(p, 1200)
	pe1 := newSpanBuf(8)
	q := pe1.open(tr, spanProcess, 1, -1, 3190)
	pe1.add(tr, spanEgressEmit, 1, q, 3200, 3240)
	pe1.close(q, 3250)
	hops := map[int32]hopSource{
		0: {kind: spanInject, pe: 0, up: -1},
		1: {kind: spanEmit, pe: 0, up: 0},
	}
	var ss spanSamples
	ss.collect([]*spanBuf{gen, pe0, pe1}, hops, []*sink{{pe: 1}}, func(uint64) int64 { return 0 }, 0)
	if len(ss.hopWait) != 2 || ss.hopWait[0]+ss.hopWait[1] != 1000+2000 {
		t.Errorf("hop waits %v, want 1000 and 2000", ss.hopWait)
	}
	if ss.deliveries != 1 || len(ss.cover) != 1 {
		t.Fatalf("deliveries %d cover %v", ss.deliveries, ss.cover)
	}
	// late 100 + admit 50 + wait 1000 + process 50 + wait 2000 + process 60
	// = 3260 of a 3250 ns life: the wait is taken from the emit's return,
	// so the tail of the upstream Process is counted twice.
	if want := 3260.0 / 3250.0; math.Abs(ss.cover[0]-want) > 1e-9 {
		t.Errorf("cover %v, want %v", ss.cover[0], want)
	}
	if ss.emit[0] != 30 || ss.processSelf[0] != 20 || ss.egressEmit[0] != 40 || ss.admit[0] != 50 {
		t.Errorf("self times: emit %v process %v egress %v admit %v", ss.emit, ss.processSelf, ss.egressEmit, ss.admit)
	}
	if got := ss.busyPerDelivery(); got != 50+30+20+40+20 {
		t.Errorf("busy per delivery %v", got)
	}
}

func metricOf(median, q1, q3 float64) Metric {
	return Metric{Summary: Summary{Value: median, Q1: q1, Q3: q3, N: 10}}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	setup := metricDecl{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name string
		d    metricDecl
		a, b Metric
		want verdict
	}{
		{"within the bound", lower, metricOf(20, 19.9, 20.1), metricOf(21.9, 21.8, 22), verdictOK},
		{"better", lower, metricOf(20, 19.9, 20.1), metricOf(10, 9.9, 10.1), verdictOK},
		{"worse than the bound", lower, metricOf(20, 19.9, 20.1), metricOf(22.1, 22, 22.2), verdictRegressed},
		{"spread wider than the bound", lower, metricOf(20, 18, 21), metricOf(30, 29.9, 30.1), verdictUnresolved},
		{"spread wider, no change", lower, metricOf(20, 19.9, 20.1), metricOf(20, 18, 21), verdictUnresolved},
		{"higher is better, dropped", higher, metricOf(1000, 999, 1001), metricOf(940, 939, 941), verdictRegressed},
		{"higher is better, rose", higher, metricOf(1000, 999, 1001), metricOf(1500, 1499, 1501), verdictOK},
		{"set-up worse by 60% but 3 ms", setup, metricOf(0.005, 0.005, 0.005), metricOf(0.008, 0.008, 0.008), verdictOK},
		{"set-up worse by 60% and 300 ms", setup, metricOf(0.5, 0.5, 0.5), metricOf(0.8, 0.8, 0.8), verdictRegressed},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(iters float64, p50 float64) *ResultSet {
		un := &Result{Workload: "control_epoch", Metrics: map[string]Metric{}}
		for _, d := range endToEnd {
			un.Metrics[d.Name] = metricOf(1, 1, 1)
		}
		un.Metrics["latency_p50_ms"] = metricOf(p50, p50, p50)
		tr := &Result{Workload: "control_epoch", Traced: true, Metrics: map[string]Metric{
			"optimize.warm_iters": metricOf(iters, iters, iters),
		}}
		return &ResultSet{Results: []*Result{un, tr}}
	}
	var out bytes.Buffer
	if bad := compareSets(&out, mk(3300, 350), mk(3300, 360)); bad != 0 {
		t.Errorf("identical counts, latency within bound: %d bad rows\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareSets(&out, mk(3300, 350), mk(3275, 500)); bad != 2 {
		t.Errorf("a differing count and a regression: %d bad rows, want 2\n%s", bad, out.String())
	}
	for _, want := range []string{"differs", "regressed", "optimize.warm_iters", "1.4286"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-compare output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the code
// together: the same workloads, the same metrics with the same units,
// directions and bounds, every name well-formed and every name printed.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(benchmarkWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(benchmarkWorkloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != benchmarkWorkloads[i].Name || w.Why != benchmarkWorkloads[i].Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in the code", i, w, benchmarkWorkloads[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, w := range allWorkloads() {
		if !runnable(w.Name) {
			t.Errorf("workload %s is declared but no code runs it", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", doc.RunSeconds, doc.Paths)
	}

	// Every declared name is printed, and the contract line carries
	// exactly the declared metrics.
	for _, traced := range []bool{false, true} {
		res := newResult(options{workload: "chain_inproc", trace: traced})
		res.fill()
		var out bytes.Buffer
		res.print(&out)
		line, err := res.contractLine()
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(res.declared()) {
			t.Errorf("contract line: %s", line)
		}
		for _, d := range res.declared() {
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("metric %s is not printed", d.Name)
			}
			if m, ok := got.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("metric %s is missing from the contract line", d.Name)
			}
		}
	}
	// The workloads outside BENCHMARK.json report their own layers too,
	// the counts -compare matches exactly among them.
	extra := map[string]bool{}
	for _, d := range newResult(options{workload: "control_epoch", trace: true}).declared() {
		extra[d.Name] = true
	}
	if len(extra) != len(perLayer)+len(extraPerLayer) {
		t.Errorf("a traced control_epoch declares %d metrics, want %d", len(extra), len(perLayer)+len(extraPerLayer))
	}
	for _, cm := range countMetrics {
		if !extra[cm] {
			t.Errorf("count metric %s is not declared", cm)
		}
	}
	for w, names := range workloadProbes {
		if !runnable(w) {
			t.Errorf("probes listed for unknown workload %s", w)
		}
		for _, n := range names {
			if _, ok := probes[n]; !ok && n != "transport.probe_payload_ns" {
				t.Errorf("workload %s lists unknown probe %s", w, n)
			}
			unitOf(n)
		}
	}
}
