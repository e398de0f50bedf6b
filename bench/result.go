package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metric is one reported number: a central value with its quartiles and
// sample count (n = 1 for a single reading or a count), and its unit.
type Metric struct {
	Summary
	Unit string `json:"unit"`
}

// Result is what one run of one workload produced, traced or not.
type Result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	Metrics    map[string]Metric `json:"metrics"`
	TraceFile  string            `json:"trace_file,omitempty"`
}

func newResult(o options) *Result {
	return &Result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Correct: true, Metrics: map[string]Metric{},
	}
}

// fail records a failed correctness gate.
func (r *Result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// note records something a reader of the numbers should know.
func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// set stores a single reading.
func (r *Result) set(name string, v float64) {
	r.Metrics[name] = Metric{Summary: Summary{Value: v, Q1: v, Q3: v, N: 1}, Unit: unitOf(name)}
}

// setSummary stores a value over samples.
func (r *Result) setSummary(name string, s Summary) {
	r.Metrics[name] = Metric{Summary: s, Unit: unitOf(name)}
}

// fill reports every declared metric of the run's kind the workload did
// not measure as 0: a layer the workload never enters did no work.
func (r *Result) fill() {
	for _, d := range r.declared() {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0)
		}
	}
}

func (r *Result) declared() []metricDecl {
	if !r.Traced {
		return endToEnd
	}
	for _, w := range extraWorkloads {
		if w.Name == r.Workload {
			return append(append([]metricDecl(nil), perLayer...), extraPerLayer...)
		}
	}
	return perLayer
}

// contractLine is the driver's result line: exactly these keys, and for
// each metric exactly value and unit.
func (r *Result) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range r.declared() {
		m := r.Metrics[d.Name]
		out.Metrics[d.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// print writes the human-readable table: every metric by name with its
// unit, value, quartiles and sample count.
func (r *Result) print(w io.Writer) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced run and probes)"
	}
	fmt.Fprintf(w, "# %s  seed=%d  seconds=%d  GOMAXPROCS=%d  %s\n", r.Workload, r.Seed, r.Seconds, r.GOMAXPROCS, kind)
	fmt.Fprintf(w, "%-34s %16s %-8s %14s %14s %4s\n", "metric", "value", "unit", "q1", "q3", "n")
	for _, d := range r.declared() {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %16s %-8s %14s %14s %4d\n", d.Name, fnum(m.Value), m.Unit, fnum(m.Q1), fnum(m.Q3), m.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "GATE FAILED: %s\n", f)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "trace: %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

func fnum(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}

// ResultSet is the -out file: one complete set of runs, each workload's
// untraced and traced result.
type ResultSet struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Results []*Result `json:"results"`
}

func (s *ResultSet) find(workload string, traced bool) *Result {
	for _, r := range s.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func (s *ResultSet) workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range s.Results {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*ResultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s ResultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
