// Command bench is the repository's benchmark: six workloads (the four
// live ones are in BENCHMARK.json), the end-to-end metrics a user of the
// system would see, and a per-layer budget from a traced run. See
// README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart is as close to process start as Go code gets; set-up time
// is counted from here.
var processStart = time.Now()

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string // where the traced run writes its span file
}

func main() {
	var o options
	var trace int
	var resultPath, outPath string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run, or \"all\" for every workload, untraced and traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds the run measures for")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
	flag.StringVar(&o.outDir, "trace-dir", "bench/out", "directory the traced run writes trace_<workload>.jsonl to")
	flag.StringVar(&resultPath, "result", "", "also write this run's full result (quartiles, n) as JSON to this file")
	flag.StringVar(&outPath, "out", "", "with -workload all: write the complete result set to this file")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare base.json new.json")
	flag.Parse()
	o.trace = trace == 1

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(2, "-compare takes two result files")
		}
		a, err := readResultSet(flag.Arg(0))
		if err != nil {
			fatal(1, err)
		}
		b, err := readResultSet(flag.Arg(1))
		if err != nil {
			fatal(1, err)
		}
		if bad := compareSets(os.Stdout, a, b); bad > 0 {
			fatal(1, fmt.Sprintf("%d rows regressed or differ", bad))
		}
		return
	case trace != 0 && trace != 1 || o.seconds < 1 || flag.NArg() > 0:
		flag.Usage()
		os.Exit(2)
	case o.workload == "all":
		set, err := runAll(o)
		if err != nil {
			fatal(1, err)
		}
		if outPath != "" {
			if err := writeJSONFile(outPath, set); err != nil {
				fatal(1, err)
			}
		}
		for _, r := range set.Results {
			if !r.Correct {
				fatal(1, fmt.Sprintf("%s failed its correctness gates", r.Workload))
			}
		}
		return
	}

	res, err := runWorkload(o)
	if err != nil {
		fatal(1, err)
	}
	if o.trace {
		res.set("bench.peak_rss_mb", peakRSSMB())
	}
	res.fill()
	res.print(os.Stdout)
	if resultPath != "" {
		if err := writeJSONFile(resultPath, res); err != nil {
			fatal(1, err)
		}
	}
	line, err := res.contractLine()
	if err != nil {
		fatal(1, err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, msg any) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*Result, error) {
	for _, lw := range liveWorkloads {
		if lw.name == o.workload {
			if o.trace {
				return runLiveTraced(lw, o)
			}
			return runLive(lw, o)
		}
	}
	switch {
	case o.workload == "control_epoch" && o.trace:
		return runControlTraced(o)
	case o.workload == "control_epoch":
		return runControl(o)
	case o.workload == "sim_scale" && o.trace:
		return runSimTraced(o)
	case o.workload == "sim_scale":
		return runSim(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// runnable reports whether runWorkload knows the workload.
func runnable(name string) bool {
	for _, lw := range liveWorkloads {
		if lw.name == name {
			return true
		}
	}
	return name == "control_epoch" || name == "sim_scale"
}
