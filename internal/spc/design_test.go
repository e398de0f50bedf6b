package spc

import (
	"math"
	"testing"

	"aces/internal/control"
	"aces/internal/graph"
	"aces/internal/policy"
	"aces/internal/sdo"
)

// designTopo generates an n-PE topology and equal per-node CPU shares.
// mixed gives every third PE a buffer of its own size.
func designTopo(tb testing.TB, n, nodes int, mixed bool) (*graph.Topology, []float64) {
	tb.Helper()
	topo, err := graph.Generate(graph.DefaultGenConfig(n, nodes, 7))
	if err != nil {
		tb.Fatal(err)
	}
	cpu := make([]float64, topo.NumPEs())
	for j := range cpu {
		cpu[j] = 1 / float64(len(topo.OnNode(topo.PEs[j].Node)))
		if mixed && j%3 == 0 {
			topo.PEs[j].BufferSize = 20 + 10*(j%4)
		}
	}
	return topo, cpu
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSharedGainsMatchPerSlotDesign: with buffers of mixed sizes, every
// slot's flow controller carries exactly the gains a design of its own
// configuration yields, and slots with the same configuration share one
// design.
func TestSharedGainsMatchPerSlotDesign(t *testing.T) {
	topo, cpu := designTopo(t, 40, 4, true)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: cpu, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	shared := map[int]*float64{} // buffer size → the Lambda array its slots use
	for _, pr := range c.prs {
		size := topo.BufferSize(sdo.PEID(pr.id))
		want, err := control.Design(control.DesignConfig{
			Delay: 2, QWeight: c.cfg.QWeight, RWeight: c.cfg.RWeight, Smoothing: 1,
			B0: c.cfg.B0Frac * float64(size),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := pr.fc.Gains()
		if got.Delay != want.Delay || math.Float64bits(got.B0) != math.Float64bits(want.B0) ||
			!sameBits(got.Lambda, want.Lambda) || !sameBits(got.Mu, want.Mu) {
			t.Errorf("PE %d (buffer %d): gains %+v, a per-slot design gives %+v", pr.id, size, got, want)
		}
		if p, ok := shared[size]; !ok {
			shared[size] = &got.Lambda[0]
		} else if p != &got.Lambda[0] {
			t.Errorf("PE %d (buffer %d) was designed again instead of sharing its size's gains", pr.id, size)
		}
	}
	if len(shared) < 3 {
		t.Fatalf("the topology has %d buffer sizes, want several", len(shared))
	}
}

// BenchmarkNewCluster builds a 200-PE deployment on 20 nodes under ACES,
// whose per-slot flow controllers used to run one Riccati design each.
func BenchmarkNewCluster(b *testing.B) {
	topo, cpu := designTopo(b, 200, 20, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: cpu, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		c.Stop()
	}
}
