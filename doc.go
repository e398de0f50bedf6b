// Package aces is a Go implementation of ACES — Adaptive Control of
// Extreme-scale Stream processing systems (Amini, Jain, Sehgal, Silber,
// Verscheure; ICDCS 2006) — together with everything the paper's
// evaluation depends on: a distributed stream-processing runtime in the
// spirit of IBM's Stream Processing Core, a calibrated discrete-event
// simulator, a random topology generator, and the full experiment harness
// that regenerates every figure of the paper.
//
// # The system in one paragraph
//
// Applications are DAGs of processing elements (PEs) placed on processing
// nodes; data flows as streams of SDOs through bounded per-PE input
// buffers. ACES controls the system on two timescales. Tier 1 (the global
// optimizer, minutes) assigns each PE a time-averaged CPU share c̄_j that
// maximizes the weighted throughput of the system's output streams under
// per-node capacity and flow-conservation constraints. Tier 2 (the
// distributed resource controller, every Δt ≈ 10 ms) stabilizes the system
// against bursty workloads: an LQR-designed flow controller computes each
// PE's maximum sustainable input rate from its buffer occupancy and
// advertises it upstream (paper Eq. 7), while a token-bucket CPU scheduler
// holds long-term shares at the tier-1 targets and shares each node's
// cycles in proportion to input-buffer occupancy, bounded by the
// downstream feedback (Eq. 8 — the max-flow policy: a producer runs fast
// enough for its fastest consumer; slower consumers shed).
//
// # What this package is for
//
// This root package is the facade a program uses to drive the paper's
// three parts: build or generate a topology, solve tier 1 with Optimize,
// design the tier-2 flow controller with DesignFlowGains, and run the
// result on the simulator (Simulate) or the live runtime (NewCluster),
// in one process or partitioned across processes over TCP links, with
// tracing and a debug endpoint when asked. It exports what the programs
// under examples/ and cmd/ need for that and nothing more; a test pins
// the exported names. Everything else (the experiment harness, the
// hierarchical solver, the chaos drills) lives under internal/ and is
// reached through cmd/ and the tests.
//
// # Quickstart
//
// Build a pipeline, solve tier 1, and simulate it under ACES:
//
//	topo := aces.NewTopology(2, 50)
//	a := topo.AddPE(aces.PE{Name: "parse", Service: aces.DefaultServiceParams(), Node: 0})
//	b := topo.AddPE(aces.PE{Name: "score", Service: aces.DefaultServiceParams(), Node: 1, Weight: 1})
//	_ = topo.Connect(a, b)
//	_ = topo.AddSource(aces.Source{Stream: 1, Target: a, Rate: 100,
//	    Burst: aces.BurstSpec{Kind: aces.BurstOnOff, PeakFactor: 2, MeanOn: 0.1}})
//	alloc, _ := aces.Optimize(topo, aces.OptimizeConfig{})
//	report, _ := aces.Simulate(aces.SimConfig{Topo: topo, Policy: aces.PolicyACES,
//	    CPU: alloc.CPU, Duration: 30})
//	fmt.Println(report)
//
// See examples/ for runnable programs and cmd/ for the CLI tools.
package aces
