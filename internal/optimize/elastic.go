// Elastic tier-1 solve: choose per-replica-slot CPU targets, letting a
// logical PE fan out into N parallel replicas when one node cannot hold
// its demand. Each active replica of PE j adds a_j·c̄ − b_j capacity but
// pays the fixed overhead b_j again (paper Eq. 6 per instance), so the
// solver trades fan-out against overhead under the same per-node capacity
// simplices as Solve. The scaling policy follows Daedalus-style model-
// driven autoscaling: replica counts fall out of the calibrated h_j
// models rather than reactive thresholds.
package optimize

import (
	"fmt"
	"math"

	"aces/internal/graph"
)

// ElasticAllocation is SolveElastic's output: the logical Allocation (CPU[j]
// is Σ_r Replica[j][r]; rates are the logical PEs') plus the per-replica-
// slot targets the rest of the control plane installs.
type ElasticAllocation struct {
	Allocation
	// Replica[j][r] is the CPU target of replica slot r of PE j, on the
	// node given by the topology's ReplicaPlacement. Slot 0 is the
	// primary; a slot with target 0 is dormant.
	Replica [][]float64
	// Replicas[j] counts PE j's active slots (target > 0).
	Replicas []int
}

// activeSlotEps is the smallest CPU target that keeps a non-primary slot
// active; anything smaller is solver dust, snapped to 0 so the data plane
// does not spin up a replica for nanocores.
const activeSlotEps = 1e-4

// SolveElastic computes per-replica-slot CPU targets for a validated
// topology, warm-started from WarmStartReplica when it has the topology's
// replica shape. PEs with MaxReplicas ≤ 1 degenerate to their primary slot
// and the solve matches Solve's feasible set exactly; elastic PEs may
// spread across their declared slots when the objective gains more from
// parallel capacity than it loses to the per-replica overhead tax. A
// parsimony pass then prunes replicas whose removal costs nothing, so low
// demand collapses back to one replica instead of idling N warm ones.
func SolveElastic(t *graph.Topology, cfg Config) (*ElasticAllocation, error) {
	a, err := newAscent(t, cfg, true)
	if err != nil {
		return nil, err
	}
	var warm []float64
	if warmShapeOK(cfg.WarmStartReplica, a.first) {
		for _, row := range cfg.WarmStartReplica {
			warm = append(warm, row...)
		}
	}
	// Replica slots cold-start at a floor of 0.05 (Solve's is 1e-6) so a
	// slot with no demand share still starts where ascent can find it.
	best, bestObj, err := a.run(warm, 0.05)
	if err != nil {
		return nil, err
	}

	// Parsimony: drop every non-primary replica whose removal does not
	// cost objective (within tolerance). The ascent happily leaves dust on
	// extra slots when capacity exceeds demand; each warm replica is a
	// buffer, a goroutine, and a b_j tax at runtime, so spend them only
	// where they buy throughput.
	tol := a.cfg.Tol * (math.Abs(bestObj) + 1e-12)
	for pass := 0; pass < 2; pass++ {
		pruned := false
		for j := range t.PEs {
			for i := a.first[j] + 1; i < a.first[j+1]; i++ {
				if best[i] == 0 {
					continue
				}
				old := best[i]
				best[i] = 0
				if obj := a.ws.eval(best, a.cfg.Utility); bestObj-obj <= tol {
					bestObj = max(bestObj, obj)
					pruned = true
					continue
				}
				best[i] = old
			}
		}
		if !pruned {
			break
		}
	}
	ea := &ElasticAllocation{Replica: make([][]float64, t.NumPEs()), Replicas: make([]int, t.NumPEs())}
	for j := range ea.Replica {
		for i := a.first[j]; i < a.first[j+1]; i++ {
			if i > a.first[j] && best[i] < activeSlotEps {
				best[i] = 0
			}
			if best[i] > 0 {
				ea.Replicas[j]++
			}
		}
		ea.Replica[j] = append([]float64(nil), best[a.first[j]:a.first[j+1]]...)
	}
	ea.Allocation = *a.result(best)
	return ea, nil
}

func warmShapeOK(warm [][]float64, first []int) bool {
	if len(warm) != len(first)-1 {
		return false
	}
	for j := range warm {
		if len(warm[j]) != first[j+1]-first[j] {
			return false
		}
	}
	return true
}

// PropagateElastic exposes the replica-group fluid model for external
// consumers: replica[j] must have one entry per replica slot of PE j
// (shape t.Replicas(j)). The hierarchical control plane uses it to
// evaluate an assembled per-region elastic solution on the full graph.
func PropagateElastic(t *graph.Topology, replica [][]float64) (rin, rout []float64, err error) {
	order, err := t.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	p := t.NumPEs()
	if len(replica) != p {
		return nil, nil, fmt.Errorf("optimize: replica matrix has %d rows, topology has %d PEs", len(replica), p)
	}
	var x []float64
	first := slotLayout(t, true)
	for j, row := range replica {
		if k := first[j+1] - first[j]; len(row) != k {
			return nil, nil, fmt.Errorf("optimize: replica row %d has %d slots, topology declares %d", j, len(row), k)
		}
		x = append(x, row...)
	}
	rin, rout = propagate(t, order, first, x)
	return rin, rout, nil
}
