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

func run(args []string) error {
	fs := flag.NewFlagSet("aces-sim", flag.ContinueOnError)
	var (
		topoFile = fs.String("topo", "", "topology JSON from aces-topo (default: generate)")
		pes      = fs.Int("pes", 60, "PEs when generating")
		nodes    = fs.Int("nodes", 10, "nodes when generating")
		seed     = fs.Int64("seed", 1, "generation/workload seed")
		polName  = fs.String("policy", "aces", "policy: aces | udp | lockstep | loadshed | aces-minflow | aces-strictcpu")
		duration = fs.Float64("duration", 30, "simulated seconds")
		buffer   = fs.Int("buffer", 0, "override per-PE buffer size B (0 = keep)")
		lambdaS  = fs.Float64("lambda-s", 0, "override burstiness λ_S (0 = keep)")
		iters    = fs.Int("iters", 800, "tier-1 iterations when targets are not provided")
		linkCap  = fs.Float64("link-capacity", 0, "per-node egress bandwidth in SDOs/sec (0 = unlimited)")
		netDelay = fs.Float64("net-delay", 0, "inter-node transit delay in seconds")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	pol, err := aces.ParsePolicy(*polName)
	if err != nil {
		return err
	}

	var topo *aces.Topology
	var cpu []float64
	if *topoFile != "" {
		topo, cpu, err = graph.ReadFile(*topoFile)
		if err != nil {
			return err
		}
	} else {
		topo, err = aces.Generate(aces.DefaultGenConfig(*pes, *nodes, *seed))
		if err != nil {
			return err
		}
	}
	if *buffer > 0 {
		topo.DefaultBufferSize = *buffer
	}
	if *lambdaS > 0 {
		for i := range topo.PEs {
			topo.PEs[i].Service.LambdaS = *lambdaS
		}
	}
	if cpu == nil {
		alloc, err := aces.Optimize(topo, aces.OptimizeConfig{
			MaxIters: *iters, Utility: aces.LinearUtility{}, MinShare: 0.02,
		})
		if err != nil {
			return err
		}
		cpu = alloc.CPU
		fmt.Fprintf(os.Stderr, "tier-1: fluid weighted throughput %.2f\n", alloc.WeightedThroughput)
	}

	rep, err := aces.Simulate(aces.SimConfig{
		Topo: topo, Policy: pol, CPU: cpu, Duration: *duration, Seed: *seed,
		LinkCapacity: *linkCap, NetDelay: *netDelay,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("policy              %s\n", pol)
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
