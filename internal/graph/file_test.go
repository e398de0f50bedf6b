package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpu []float64) string {
		t.Helper()
		var buf bytes.Buffer
		if err := Write(&buf, chain(t), cpu); err != nil {
			t.Fatal(err)
		}
		if cpu == nil && strings.Contains(buf.String(), `"cpu"`) {
			t.Errorf("%s: a file without targets carries a cpu key", name)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cpu := []float64{0.2, 0.3, 0.4}
	topo, got, err := ReadFile(write("solved.json", cpu))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, cpu) {
		t.Errorf("cpu = %v, want %v", got, cpu)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(topo.Down(0)) != 1 || topo.Down(0)[0] != 1 {
		t.Errorf("adjacency not rebuilt")
	}
	if _, got, err := ReadFile(write("plain.json", nil)); err != nil || got != nil {
		t.Errorf("unsolved file: cpu %v, err %v; want nil, nil", got, err)
	}

	for name, body := range map[string]string{"garbage.json": "{", "empty.json": "{}"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFile(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("missing file accepted")
	}
}
