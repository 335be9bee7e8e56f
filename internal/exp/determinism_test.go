package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The simulation's claim to reproducibility: every driver is a pure
// function of (scale, seed). Running a figure twice must produce
// byte-identical result tables — any divergence means nondeterminism
// crept into the event engine, the staging protocol, or the adaptive
// controller's decisions.

func assertDeterministic(t *testing.T, name string, run func() (string, error)) {
	t.Helper()
	first, err := run()
	if err != nil {
		t.Fatalf("%s (run 1): %v", name, err)
	}
	second, err := run()
	if err != nil {
		t.Fatalf("%s (run 2): %v", name, err)
	}
	if first != second {
		t.Fatalf("%s: runs diverged\n--- run 1\n%s\n--- run 2\n%s", name, first, second)
	}
}

// TestExperimentsDeterministic runs every registry entry twice at Small
// scale, each time on a fresh sweep (a shared memo would compare a run
// with itself), and compares the tables and the snapshot JSON. The
// tables embed the adaptive decision traces, the what-if counters and
// the tuning verdict, so a single flipped probe, victim or replay step
// shows up as a diff. The entries run in parallel, so under -race the
// test also shows that no two sweeps share state. Each snapshot must
// also have the shape of its committed full-scale BENCH_*.json: the
// same key paths in the same order, so a renamed tag or a reordered
// field fails here, not only in make bench-check.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			var snap []byte
			assertDeterministic(t, e.Name, func() (string, error) {
				o, err := e.Run(&Sweep{Scale: Small})
				if err != nil {
					return "", err
				}
				snap, err = json.Marshal(o.Snapshot)
				if err != nil {
					return "", err
				}
				return o.Table.String() + string(snap), nil
			})
			if e.Snapshot == "" {
				return
			}
			committed, err := os.ReadFile(filepath.Join("../..", e.Snapshot))
			if err != nil {
				t.Fatal(err)
			}
			want, err := keyPaths(committed)
			if err != nil {
				t.Fatalf("%s: %v", e.Snapshot, err)
			}
			got, err := keyPaths(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("Small snapshot has key paths\n%q\ncommitted %s has\n%q", got, e.Snapshot, want)
			}
		})
	}
}

// keyPaths lists a JSON document's object key paths in the order they
// first appear, with array elements collapsed to "[]": the document's
// shape, whatever number of rows a scale produces.
func keyPaths(raw []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var paths []string
	seen := map[string]bool{}
	var walk func(prefix string) error
	walk = func(prefix string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if tok != json.Delim('{') && tok != json.Delim('[') {
			return nil
		}
		for dec.More() {
			path := prefix + "[]"
			if tok == json.Delim('{') {
				key, err := dec.Token()
				if err != nil {
					return err
				}
				path = prefix + "." + key.(string)
				if !seen[path] {
					seen[path] = true
					paths = append(paths, path)
				}
			}
			if err := walk(path); err != nil {
				return err
			}
		}
		_, err = dec.Token() // the closing delimiter
		return err
	}
	return paths, walk("")
}
