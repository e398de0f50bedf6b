package aces_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// surface is the facade's exported set. Each name is used by a program
// under examples/ or cmd/, by example_test.go or doc.go, or named in
// README/DESIGN/EXPERIMENTS, or a kept function's signature names it
// (Allocation, FlowGains, GenConfig, ResilientLink, Trace, TelemetrySink,
// …), or it constructs a kept type (NewRouter). Growing the facade means
// growing this list, in review.
var surface = []string{
	"Allocation", "BurstDeterministic", "BurstOnOff", "BurstPoisson", "BurstSpec",
	"Cluster", "ClusterConfig", "Conn", "DebugOptions", "DebugServer",
	"DefaultFlowDesign", "DefaultGenConfig", "DefaultServiceParams", "DesignFlowGains",
	"Dial", "DialFunc", "Edge", "FailoverConfig", "FlowController", "FlowDesignConfig",
	"FlowGains", "FuncProcessor", "GenConfig", "Generate", "HealthConfig", "LinearUtility",
	"Link", "Listen", "Listener", "MemoryTelemetrySink", "MergeTraces", "NewCluster",
	"NewFlowController", "NewLink", "NewMemoryTelemetrySink", "NewResilientLink",
	"NewRouter", "NewSimulation", "NewTelemetryRegistry", "NewTopology", "NewTracer",
	"NodeID", "Optimize", "OptimizeConfig", "PE", "PEID", "ParsePolicy", "Policy",
	"PolicyACES", "PolicyLockStep", "PolicyUDP", "Processor", "Report",
	"ResilientLink", "ResilientOptions", "RetargetConfig", "Router", "SDO",
	"SafetyConfig", "ServeDebug", "ServiceParams", "SimConfig", "Simulate",
	"Simulation", "Source", "StreamID", "TelemetryRegistry", "TelemetrySink",
	"Topology", "Trace", "Tracer",
}

// exportedNames returns the sorted exported top-level names declared in
// the package's non-test files.
func exportedNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, f := range pkgs["aces"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

func TestExportedSurfaceIsPinned(t *testing.T) {
	got := exportedNames(t)
	if !slices.IsSorted(surface) {
		t.Fatalf("surface list is not sorted")
	}
	for _, n := range got {
		if _, ok := slices.BinarySearch(surface, n); !ok {
			t.Errorf("exported %s is not in the pinned surface", n)
		}
	}
	for _, n := range surface {
		if _, ok := slices.BinarySearch(got, n); !ok {
			t.Errorf("pinned %s is no longer exported", n)
		}
	}
}
