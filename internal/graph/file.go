package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// document is the topology file the command-line tools exchange: a
// topology and, when it was solved, its tier-1 CPU targets.
type document struct {
	Topology *Topology `json:"topology"`
	CPU      []float64 `json:"cpu,omitempty"`
}

// Write writes t, with cpu when it is non-nil, as an indented JSON
// topology file that ReadFile reads back.
func Write(w io.Writer, t *Topology, cpu []float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(document{Topology: t, CPU: cpu})
}

// ReadFile reads the topology file at path and rebuilds the topology's
// adjacency indexes. cpu is nil when the file carries no tier-1 targets.
func ReadFile(path string) (t *Topology, cpu []float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if doc.Topology == nil {
		return nil, nil, fmt.Errorf("no topology in %s", path)
	}
	if err := doc.Topology.Rebuild(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Topology, doc.CPU, nil
}
