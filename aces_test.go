package aces_test

import (
	"math"
	"testing"

	"aces"
)

// The facade test doubles as the quickstart: build a pipeline through the
// public API only, optimize, and run it on both substrates.
func buildPipeline(t *testing.T) *aces.Topology {
	t.Helper()
	topo := aces.NewTopology(2, 50)
	svc := aces.ServiceParams{T0: 0.002, T1: 0.002, Rho: 0, LambdaS: 10, DwellUnit: 0.01, MeanMult: 1}
	parse := topo.AddPE(aces.PE{Name: "parse", Service: svc, Node: 0})
	score := topo.AddPE(aces.PE{Name: "score", Service: svc, Node: 1, Weight: 1})
	if err := topo.Connect(parse, score); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(aces.Source{
		Stream: 1, Target: parse, Rate: 100,
		Burst: aces.BurstSpec{Kind: aces.BurstOnOff, PeakFactor: 2, MeanOn: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestQuickstartSimulator(t *testing.T) {
	topo := buildPipeline(t)
	alloc, err := aces.Optimize(topo, aces.OptimizeConfig{MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.WeightedThroughput <= 0 {
		t.Fatalf("tier-1 predicts zero throughput")
	}
	rep, err := aces.Simulate(aces.SimConfig{
		Topo: topo, Policy: aces.PolicyACES, CPU: alloc.CPU, Duration: 15, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.WeightedThroughput-100)/100 > 0.1 {
		t.Errorf("simulated wt = %.1f, want ≈100 (underloaded pipeline)", rep.WeightedThroughput)
	}
}

func TestQuickstartLiveCluster(t *testing.T) {
	topo := buildPipeline(t)
	alloc, err := aces.Optimize(topo, aces.OptimizeConfig{MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := aces.NewCluster(aces.ClusterConfig{
		Topo: topo, Policy: aces.PolicyACES, CPU: alloc.CPU, TimeScale: 20, Warmup: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.WeightedThroughput-100)/100 > 0.25 {
		t.Errorf("live wt = %.1f, want ≈100", rep.WeightedThroughput)
	}
}

func TestGenerateAndPolicies(t *testing.T) {
	topo, err := aces.Generate(aces.DefaultGenConfig(30, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := aces.Optimize(topo, aces.OptimizeConfig{MaxIters: 200, Utility: aces.LinearUtility{}, MinShare: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aces", "udp", "lockstep"} {
		pol, err := aces.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := aces.Simulate(aces.SimConfig{Topo: topo, Policy: pol, CPU: alloc.CPU, Duration: 8, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deliveries == 0 {
			t.Errorf("%s: no deliveries", name)
		}
	}
}

func TestFlowGainDesignThroughFacade(t *testing.T) {
	g, err := aces.DesignFlowGains(aces.DefaultFlowDesign(25))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := aces.NewFlowController(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Matched rates at the target buffer level advertise exactly ρ.
	if r := fc.Update(4, 25); math.Abs(r-4) > 0.5 {
		t.Errorf("r_max = %g, want ≈4", r)
	}
}
