package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is -compare's judgement of one end-to-end metric on one
// workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved" // the spread is wider than the bound
	verdictDiffers    verdict = "differs"    // a count that must repeat did not
)

// setupFloorS is the absolute part of set-up time's bound: most
// workloads set up in a few milliseconds, where 25% is timer noise.
const setupFloorS = 0.050

// worsening is how far b is on the wrong side of a, as a share of a.
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "lower" {
		return (b - a) / math.Abs(a)
	}
	return (a - b) / math.Abs(a)
}

// judge compares one metric of the base run a with the new run b. A
// metric whose window-to-window spread (interquartile range over median)
// exceeds the bound in either run is unresolved, not unchanged.
func judge(d metricDecl, a, b Metric) verdict {
	if math.Max(a.spreadFrac(), b.spreadFrac()) > d.Bound {
		return verdictUnresolved
	}
	worse := worsening(d, a.Value, b.Value)
	if worse <= d.Bound {
		return verdictOK
	}
	if d.Name == "setup_s" && b.Value-a.Value <= setupFloorS {
		return verdictOK
	}
	return verdictRegressed
}

// compareSets prints, per workload and end-to-end metric, both medians,
// the ratio with its base, the bound and the verdict, then the count
// metrics, which must match exactly. It returns how many rows regressed
// or differ.
func compareSets(w io.Writer, a, b *ResultSet) int {
	bad := 0
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric", "base (a)", "new (b)", "b/a", "bound", "verdict")
	for _, name := range a.workloads() {
		ra, rb := a.find(name, false), b.find(name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-16s missing from one of the sets\n", name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			v := judge(d, ma, mb)
			if v == verdictRegressed {
				bad++
			}
			ratio := math.NaN()
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			fmt.Fprintf(w, "%-16s %-16s %14s %14s %9.4f %6.2f  %s\n", name, d.Name, fnum(ma.Value), fnum(mb.Value), ratio, d.Bound, v)
		}
	}
	for _, name := range a.workloads() {
		ta, tb := a.find(name, true), b.find(name, true)
		if ta == nil || tb == nil {
			continue
		}
		for _, cm := range countMetrics {
			va, vb := ta.Metrics[cm].Value, tb.Metrics[cm].Value
			if va == 0 && vb == 0 {
				continue // the workload never enters that layer
			}
			v := verdictOK
			if va != vb {
				v = verdictDiffers
				bad++
			}
			fmt.Fprintf(w, "%-16s %-32s %14s %14s  %s\n", name, cm, fnum(va), fnum(vb), v)
		}
	}
	return bad
}
