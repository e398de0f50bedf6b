// Command aces-topo is the topology generation tool of the paper's
// evaluation (§VI-A): it emits a randomly generated PE graph — placement,
// per-PE parameters, calibrated bursty sources — as JSON, optionally with
// tier-1 CPU targets attached. The output feeds aces-sim and aces-spc.
//
// Usage:
//
//	aces-topo -pes 200 -nodes 80 -seed 1 -solve -o topo.json
//	aces-topo -validate topo.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aces"
	"aces/internal/graph"
	"aces/internal/hier"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "aces-topo: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aces-topo", flag.ContinueOnError)
	var (
		pes      = fs.Int("pes", 60, "total number of PEs")
		nodes    = fs.Int("nodes", 10, "number of processing nodes")
		ingress  = fs.Int("ingress", 0, "ingress PEs (0 = ~15%)")
		egress   = fs.Int("egress", 0, "egress PEs (0 = ~15%)")
		seed     = fs.Int64("seed", 1, "generation seed")
		load     = fs.Float64("load", 1.3, "source load factor × fluid capacity")
		buffer   = fs.Int("buffer", 50, "per-PE input buffer B in SDOs")
		lambdaS  = fs.Float64("lambda-s", 10, "burstiness dwell scale λ_S")
		solve    = fs.Bool("solve", false, "attach tier-1 CPU targets")
		iters    = fs.Int("iters", 1500, "tier-1 solver iterations (with -solve)")
		regions  = fs.Int("regions", 0, "decompose into this many control regions; -dot then renders the decomposition with cut edges highlighted")
		out      = fs.String("o", "", "output file (default stdout)")
		dotOut   = fs.String("dot", "", "also write a Graphviz rendering to this file")
		validate = fs.String("validate", "", "validate an existing topology JSON instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validate != "" {
		topo, _, err := graph.ReadFile(*validate)
		if err != nil {
			return err
		}
		if err := topo.Validate(); err != nil {
			return err
		}
		capRate, err := topo.BottleneckIngressRate()
		if err != nil {
			return err
		}
		fmt.Printf("ok: %d PEs on %d nodes, %d edges, %d sources, fluid capacity %.1f SDO/s per source\n",
			topo.NumPEs(), topo.NumNodes, len(topo.Edges), len(topo.Sources), capRate)
		return nil
	}

	cfg := aces.DefaultGenConfig(*pes, *nodes, *seed)
	cfg.NumIngress = *ingress
	cfg.NumEgress = *egress
	cfg.LoadFactor = *load
	cfg.BufferSize = *buffer
	cfg.Service.LambdaS = *lambdaS
	topo, err := aces.Generate(cfg)
	if err != nil {
		return err
	}

	var dec *hier.Decomposition
	if *regions > 0 {
		dec, err = hier.Partition(topo, hier.PartitionConfig{Regions: *regions})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "regions: %d over %d nodes, %d cut edges carrying %.1f%% of stream volume\n",
			len(dec.Regions), topo.NumNodes, len(dec.Cut), 100*dec.CutFraction())
		for _, r := range dec.Regions {
			fmt.Fprintf(os.Stderr, "  region %d: %d PEs on %d nodes\n", r.ID, len(r.PEs), len(r.Nodes))
		}
	}

	if *dotOut != "" {
		title := fmt.Sprintf("%d PEs / %d nodes (seed %d)", topo.NumPEs(), topo.NumNodes, *seed)
		err := create(*dotOut, func(w io.Writer) error {
			if dec == nil {
				return topo.WriteDOT(w, title)
			}
			return hier.WriteDOT(w, topo, dec, fmt.Sprintf("%s, %d regions", title, len(dec.Regions)))
		})
		if err != nil {
			return err
		}
	}

	var cpu []float64
	if *solve {
		alloc, err := aces.Optimize(topo, aces.OptimizeConfig{
			MaxIters: *iters, Utility: aces.LinearUtility{}, MinShare: 0.02,
		})
		if err != nil {
			return err
		}
		cpu = alloc.CPU
		fmt.Fprintf(os.Stderr, "tier-1: fluid weighted throughput %.2f in %d iterations\n",
			alloc.WeightedThroughput, alloc.Iterations)
	}

	write := func(w io.Writer) error { return graph.Write(w, topo, cpu) }
	if *out == "" {
		return write(os.Stdout)
	}
	return create(*out, write)
}

// create writes the file at path with write.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
