package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAll runs every workload, untraced and then traced, each in a fresh
// process so no run inherits another's heap, goroutines or page cache of
// warmed pools. The children print their own tables; their full results
// are gathered into one set.
func runAll(o options) (*ResultSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	set := &ResultSet{Seed: o.seed, Seconds: o.seconds}
	for _, w := range allWorkloads() {
		for _, trace := range []int{0, 1} {
			path := filepath.Join(o.outDir, fmt.Sprintf("result_%s_%d.json", w.Name, trace))
			cmd := exec.Command(exe,
				"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace),
				"-trace-dir", o.outDir, "-result", path)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("%s (trace %d) left no result: %v (%v)", w.Name, trace, err, runErr)
			}
			var res Result
			if err := json.Unmarshal(b, &res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			set.Results = append(set.Results, &res)
		}
	}
	return set, nil
}
