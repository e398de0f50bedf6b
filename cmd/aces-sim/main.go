// Command aces-sim runs one simulation: a topology (generated or loaded
// from aces-topo JSON) under one of the flow/CPU policies, printing the
// §III-A/§IV metrics.
//
// Usage:
//
//	aces-sim -pes 200 -nodes 80 -policy aces -duration 40
//	aces-sim -topo topo.json -policy lockstep -buffer 25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"aces"
	"aces/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "aces-sim: %v\n", err)
		os.Exit(1)
	}
}

// options is a parsed aces-sim command line.
type options struct {
	topoFile          string
	pol               aces.Policy
	pes, nodes        int
	seed              int64
	duration, lambdaS float64
	buffer, iters     int
	json              bool
}

// newFlagSet registers every aces-sim flag, each bound to a field of the
// returned options.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("aces-sim", flag.ContinueOnError)
	o := &options{pol: aces.PolicyACES}
	fs.StringVar(&o.topoFile, "topo", "", "topology JSON from aces-topo (default: generate)")
	fs.IntVar(&o.pes, "pes", 60, "PEs when generating")
	fs.IntVar(&o.nodes, "nodes", 10, "nodes when generating")
	fs.Int64Var(&o.seed, "seed", 1, "generation/workload seed")
	fs.Func("policy", "policy: aces | udp | lockstep | loadshed | aces-minflow | aces-strictcpu (default aces)", func(s string) (err error) {
		o.pol, err = aces.ParsePolicy(s)
		return err
	})
	fs.Float64Var(&o.duration, "duration", 30, "simulated seconds")
	fs.IntVar(&o.buffer, "buffer", 0, "override per-PE buffer size B (0 = keep)")
	fs.Float64Var(&o.lambdaS, "lambda-s", 0, "override burstiness λ_S (0 = keep)")
	fs.IntVar(&o.iters, "iters", 800, "tier-1 iterations when targets are not provided")
	fs.BoolVar(&o.json, "json", false, "emit the report as JSON")
	return fs, o
}

// parseFlags parses args, so a bad command line fails before anything is
// read or run.
func parseFlags(args []string) (*options, error) {
	fs, o := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	var topo *aces.Topology
	var cpu []float64
	if o.topoFile != "" {
		topo, cpu, err = graph.ReadFile(o.topoFile)
		if err != nil {
			return err
		}
	} else {
		topo, err = aces.Generate(aces.DefaultGenConfig(o.pes, o.nodes, o.seed))
		if err != nil {
			return err
		}
	}
	if o.buffer > 0 {
		topo.DefaultBufferSize = o.buffer
	}
	if o.lambdaS > 0 {
		for i := range topo.PEs {
			topo.PEs[i].Service.LambdaS = o.lambdaS
		}
	}
	if cpu == nil {
		alloc, err := aces.Optimize(topo, aces.OptimizeConfig{
			MaxIters: o.iters, Utility: aces.LinearUtility{}, MinShare: 0.02,
		})
		if err != nil {
			return err
		}
		cpu = alloc.CPU
		fmt.Fprintf(os.Stderr, "tier-1: fluid weighted throughput %.2f\n", alloc.WeightedThroughput)
	}

	rep, err := aces.Simulate(aces.SimConfig{
		Topo: topo, Policy: o.pol, CPU: cpu, Duration: o.duration, Seed: o.seed,
	})
	if err != nil {
		return err
	}
	if o.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("policy              %s\n", o.pol)
	fmt.Printf("weighted throughput %.2f /s\n", rep.WeightedThroughput)
	fmt.Printf("deliveries          %d\n", rep.Deliveries)
	fmt.Printf("latency mean ± σ    %.1f ± %.1f ms (p50 %.1f, p95 %.1f, p99 %.1f)\n",
		rep.MeanLatency*1e3, rep.StdLatency*1e3, rep.P50*1e3, rep.P95*1e3, rep.P99*1e3)
	fmt.Printf("input drops         %d\n", rep.InputDrops)
	fmt.Printf("in-flight drops     %d (wasted hops %d)\n", rep.InFlightDrops, rep.WastedHops)
	fmt.Printf("buffer occupancy    %.1f ± %.1f SDOs\n", rep.MeanBufferOccupancy, rep.StdBufferOccupancy)
	fmt.Printf("throughput CV       %.3f\n", rep.ThroughputCV)
	return nil
}
