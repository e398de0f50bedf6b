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

// options is a parsed aces-topo command line.
type options struct {
	pes, nodes, buffer, iters, regions int
	seed                               int64
	lambdaS                            float64
	solve                              bool
	out, dotOut, validate              string
}

// newFlagSet registers every aces-topo flag, each bound to a field of the
// returned options.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("aces-topo", flag.ContinueOnError)
	o := &options{}
	fs.IntVar(&o.pes, "pes", 60, "total number of PEs")
	fs.IntVar(&o.nodes, "nodes", 10, "number of processing nodes")
	fs.Int64Var(&o.seed, "seed", 1, "generation seed")
	fs.IntVar(&o.buffer, "buffer", 50, "per-PE input buffer B in SDOs")
	fs.Float64Var(&o.lambdaS, "lambda-s", 10, "burstiness dwell scale λ_S")
	fs.BoolVar(&o.solve, "solve", false, "attach tier-1 CPU targets")
	fs.IntVar(&o.iters, "iters", 1500, "tier-1 solver iterations (with -solve)")
	fs.IntVar(&o.regions, "regions", 0, "decompose into this many control regions; -dot then renders the decomposition with cut edges highlighted")
	fs.StringVar(&o.out, "o", "", "output file (default stdout)")
	fs.StringVar(&o.dotOut, "dot", "", "also write a Graphviz rendering to this file")
	fs.StringVar(&o.validate, "validate", "", "validate an existing topology JSON instead of generating")
	return fs, o
}

// parseFlags parses args, so a bad command line fails before anything is
// read, generated or written.
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
	if o.validate != "" {
		topo, _, err := graph.ReadFile(o.validate)
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

	cfg := aces.DefaultGenConfig(o.pes, o.nodes, o.seed)
	cfg.BufferSize = o.buffer
	cfg.Service.LambdaS = o.lambdaS
	topo, err := aces.Generate(cfg)
	if err != nil {
		return err
	}

	var dec *hier.Decomposition
	if o.regions > 0 {
		dec, err = hier.Partition(topo, hier.PartitionConfig{Regions: o.regions})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "regions: %d over %d nodes, %d cut edges carrying %.1f%% of stream volume\n",
			len(dec.Regions), topo.NumNodes, len(dec.Cut), 100*dec.CutFraction())
		for _, r := range dec.Regions {
			fmt.Fprintf(os.Stderr, "  region %d: %d PEs on %d nodes\n", r.ID, len(r.PEs), len(r.Nodes))
		}
	}

	if o.dotOut != "" {
		title := fmt.Sprintf("%d PEs / %d nodes (seed %d)", topo.NumPEs(), topo.NumNodes, o.seed)
		err := create(o.dotOut, func(w io.Writer) error {
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
	if o.solve {
		alloc, err := aces.Optimize(topo, aces.OptimizeConfig{
			MaxIters: o.iters, Utility: aces.LinearUtility{}, MinShare: 0.02,
		})
		if err != nil {
			return err
		}
		cpu = alloc.CPU
		fmt.Fprintf(os.Stderr, "tier-1: fluid weighted throughput %.2f in %d iterations\n",
			alloc.WeightedThroughput, alloc.Iterations)
	}

	write := func(w io.Writer) error { return graph.Write(w, topo, cpu) }
	if o.out == "" {
		return write(os.Stdout)
	}
	return create(o.out, write)
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
