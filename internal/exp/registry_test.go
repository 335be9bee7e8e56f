package exp

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestRegistryCatalogue: names are unique, and the registry writes
// exactly the BENCH_*.json snapshots committed at the repository root,
// so bench-check cannot lose a snapshot or compare a stale one.
func TestRegistryCatalogue(t *testing.T) {
	names := map[string]bool{}
	var written []string
	for _, e := range Experiments() {
		if names[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		names[e.Name] = true
		if e.Snapshot != "" {
			written = append(written, e.Snapshot)
		}
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed []string
	for _, p := range paths {
		committed = append(committed, filepath.Base(p))
	}
	slices.Sort(written)
	if !slices.Equal(written, committed) {
		t.Fatalf("registry snapshots %v, committed snapshots %v", written, committed)
	}
}
