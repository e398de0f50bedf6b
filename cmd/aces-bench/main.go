// Command aces-bench regenerates the paper's evaluation: every figure
// (Figs. 2–5) and every quantitative claim (small-buffer advantage,
// robustness to allocation errors, closed-loop stability, simulator↔SPC
// calibration) as plain-text tables, plus E13's hierarchical-solver
// ladder. EXPERIMENTS.md records its output. The live-runtime acceptance
// drills (E10–E12, E14) are tests in internal/experiments, and
// performance is measured by the repository's benchmark, ./bench.
//
// Usage:
//
//	aces-bench                  # full paper-scale suite (minutes)
//	aces-bench -quick           # reduced scale (seconds)
//	aces-bench -exp fig4,fig5   # selected experiments only
//	aces-bench -json out.json   # machine-readable results (stable key order)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"aces/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "aces-bench: %v\n", err)
		os.Exit(1)
	}
}

// env is a parsed command line: what a step reads and where it writes.
type env struct {
	o            experiments.Options
	w            io.Writer
	want         map[string]bool
	quick        bool
	csvDir       string
	jsonTo       string
	hierSeed     int64
	hierDeadline time.Duration
	json         []jsonExperiment // accumulated for -json
}

// jsonExperiment is one -json entry. Struct field order fixes the key
// order, so the output is byte-stable across runs of one configuration.
type jsonExperiment struct {
	Name string `json:"name"`
	Rows any    `json:"rows"`
}

// sel reports whether -exp asked for the named experiment.
func (e *env) sel(name string) bool { return e.want["all"] || e.want[name] }

// show is a step's tail: given an experiment's (rows, err), it records
// the rows for -json under name and prints them with format.
func show[R any](e *env, name string, format func(io.Writer, R)) func(R, error) error {
	return func(rows R, err error) error {
		if err != nil {
			return err
		}
		if e.jsonTo != "" {
			e.json = append(e.json, jsonExperiment{Name: name, Rows: rows})
		}
		format(e.w, rows)
		return nil
	}
}

// writeCSV writes rows as the named file under -csv, if it was given.
func writeCSV[R any](e *env, name string, write func(io.Writer, R) error, rows R) error {
	if e.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(e.csvDir + "/" + name)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f, rows)
}

// step is one entry of the experiment table; names are the -exp names
// that select it.
type step struct {
	names []string
	run   func(e *env) error
}

var steps = []step{
	{[]string{"fig2"}, func(e *env) error {
		rows, err := experiments.Fanout(e.o)
		if err := show(e, "fig2", experiments.FormatFanout)(rows, err); err != nil {
			return err
		}
		return writeCSV(e, "fanout.csv", experiments.FanoutCSV, rows)
	}},
	{[]string{"fig3", "fig4"}, func(e *env) error {
		rows, err := experiments.BufferSweep(e.o, nil)
		format := func(w io.Writer, rows []experiments.BufferRow) {
			if e.sel("fig3") {
				experiments.FormatFig3(w, rows)
			}
			if e.sel("fig4") {
				experiments.FormatFig4(w, rows)
			}
		}
		if err := show(e, "fig3+fig4", format)(rows, err); err != nil {
			return err
		}
		return writeCSV(e, "buffer_sweep.csv", experiments.BufferSweepCSV, rows)
	}},
	{[]string{"fig5"}, func(e *env) error {
		rows, err := experiments.BurstinessSweep(e.o, nil)
		if err := show(e, "fig5", experiments.FormatFig5)(rows, err); err != nil {
			return err
		}
		return writeCSV(e, "burstiness.csv", experiments.BurstinessCSV, rows)
	}},
	{[]string{"smallbuf"}, func(e *env) error {
		return show(e, "smallbuf", experiments.FormatSmallBuffer)(experiments.SmallBufferAdvantage(e.o, nil))
	}},
	{[]string{"robust"}, func(e *env) error {
		return show(e, "robust", experiments.FormatRobustness)(experiments.Robustness(e.o, nil))
	}},
	{[]string{"stability"}, func(e *env) error {
		return show(e, "stability", experiments.FormatStability)(experiments.Stability(e.o))
	}},
	{[]string{"calibrate"}, func(e *env) error {
		return show(e, "calibrate", experiments.FormatCalibration)(experiments.Calibration(e.o))
	}},
	{[]string{"ablations"}, func(e *env) error {
		return show(e, "ablations", experiments.FormatAblations)(experiments.Ablations(e.o))
	}},
	{[]string{"hier"}, func(e *env) error {
		res, err := experiments.RunHier(experiments.HierOptions{Seed: e.hierSeed, Deadline: e.hierDeadline, Quick: e.quick})
		if err := show(e, "hier", experiments.FormatHier)(res, err); err != nil {
			return err
		}
		if !res.OK {
			return fmt.Errorf("hierarchical control plane missed the acceptance bar (see table above)")
		}
		return nil
	}},
}

// expNames lists every valid -exp name in table order, then "all".
func expNames() []string {
	var names []string
	for _, s := range steps {
		names = append(names, s.names...)
	}
	return append(names, "all")
}

// parseFlags parses args and rejects any -exp name the step table does
// not know, so a stale script fails instead of running nothing.
func parseFlags(args []string) (*env, error) {
	fs := flag.NewFlagSet("aces-bench", flag.ContinueOnError)
	var (
		quick  = fs.Bool("quick", false, "reduced scale for a fast pass")
		exps   = fs.String("exp", "all", "comma-separated: "+strings.Join(expNames(), "|"))
		csvDir = fs.String("csv", "", "also write plotting-ready CSVs into this directory")
		jsonTo = fs.String("json", "", "also write per-experiment results as machine-readable JSON to this file")
		pes    = fs.Int("pes", 0, "override topology PE count")
		nodes  = fs.Int("nodes", 0, "override node count")
		dur    = fs.Float64("duration", 0, "override per-run simulated seconds")

		hierSeed     = fs.Int64("hier-seed", 13, "hier experiment: topology seed")
		hierDeadline = fs.Duration("hier-deadline", 0, "hier experiment: per-epoch solve deadline (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(expNames(), e) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", e, strings.Join(expNames(), ", "))
		}
		want[e] = true
	}

	o := experiments.Default()
	if *quick {
		o = experiments.Quick()
	}
	if *pes > 0 {
		o.PEs = *pes
	}
	if *nodes > 0 {
		o.Nodes = *nodes
	}
	if *dur > 0 {
		o.Duration = *dur
	}
	return &env{
		o: o, w: os.Stdout, want: want, quick: *quick,
		csvDir: *csvDir, jsonTo: *jsonTo,
		hierSeed: *hierSeed, hierDeadline: *hierDeadline,
	}, nil
}

func run(args []string) error {
	e, err := parseFlags(args)
	if err != nil {
		return err
	}

	fmt.Fprintf(e.w, "ACES evaluation reproduction — %d PEs / %d nodes, %.0fs per run, seeds %v\n\n",
		e.o.PEs, e.o.Nodes, e.o.Duration, e.o.Seeds)

	start := time.Now()
	for _, s := range steps {
		if !slices.ContainsFunc(s.names, e.sel) {
			continue
		}
		name := strings.Join(s.names, "+")
		t0 := time.Now()
		if err := s.run(e); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(e.w, "  [%s done in %.1fs]\n\n", name, time.Since(t0).Seconds())
	}
	fmt.Fprintf(e.w, "total %.1fs\n", time.Since(start).Seconds())
	if e.jsonTo != "" {
		doc := struct {
			PEs         int              `json:"pes"`
			Nodes       int              `json:"nodes"`
			Duration    float64          `json:"duration_s"`
			Seeds       []int64          `json:"seeds"`
			Experiments []jsonExperiment `json:"experiments"`
		}{e.o.PEs, e.o.Nodes, e.o.Duration, e.o.Seeds, e.json}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		if err := os.WriteFile(e.jsonTo, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("json: %w", err)
		}
		fmt.Fprintf(e.w, "wrote %s\n", e.jsonTo)
	}
	return nil
}
