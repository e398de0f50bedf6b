package experiments

import (
	"strings"
	"testing"
	"time"
)

// A miniature E13 must run end to end: both solvers at every ladder
// point, the partition, and the three simulator runs wired through
// streamsim.StartRetarget. The acceptance verdict itself is only gated
// at real scale (aces-bench -exp hier) — at toy scale the decomposition's
// relay overhead dominates, so here we assert mechanics, not quality.
func TestRunHierMiniature(t *testing.T) {
	res, err := RunHier(HierOptions{
		Scales:      []int{60, 120},
		PEsPerNode:  6,
		RegionPEs:   30,
		MonoIters:   120,
		RegionIters: 40,
		Sweeps:      2,
		Deadline:    20 * time.Second,
		SimPEs:      60,
		SimDuration: 2,
		SimEvery:    0.8,
		// Keep the grad row miniature too: the test checks plumbing, not
		// the p=1000 acceptance measurement.
		GradPEs:        60,
		GradIters:      200,
		GradFDDeadline: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scales) != 2 {
		t.Fatalf("scale rows = %d, want 2", len(res.Scales))
	}
	for _, r := range res.Scales {
		if r.Regions < 2 {
			t.Errorf("scale %d: %d regions, want ≥ 2", r.PEs, r.Regions)
		}
		if r.MonoWT <= 0 || r.HierWT <= 0 {
			t.Errorf("scale %d: zero throughput (mono %.2f, hier %.2f)", r.PEs, r.MonoWT, r.HierWT)
		}
		if r.HierFrac <= 0.5 {
			t.Errorf("scale %d: hier/mono %.2f implausibly low", r.PEs, r.HierFrac)
		}
	}
	if res.Sim.Epochs < 1 {
		t.Errorf("sim installed %d retarget epochs, want ≥ 1", res.Sim.Epochs)
	}
	if res.Sim.UniformWT <= 0 || res.Sim.MonoWT <= 0 || res.Sim.HierWT <= 0 {
		t.Errorf("sim throughputs: %+v", res.Sim)
	}
	if res.Grad.PEs != 60 || res.Grad.AnWT <= 0 || res.Grad.FDWT <= 0 ||
		res.Grad.AnEvals <= 0 || res.Grad.FDEvals <= 0 {
		t.Errorf("grad row not populated: %+v", res.Grad)
	}
	if res.Grad.FDEvals <= res.Grad.AnEvals {
		t.Errorf("finite-diff used %d evals ≤ analytic's %d — FD engine not exercised",
			res.Grad.FDEvals, res.Grad.AnEvals)
	}

	var sb strings.Builder
	FormatHier(&sb, res)
	if !strings.Contains(sb.String(), "E13") || !strings.Contains(sb.String(), "verdict") {
		t.Errorf("FormatHier output broken:\n%s", sb.String())
	}
}
