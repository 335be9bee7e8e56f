package exp

import (
	"encoding/json"
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
// scale and compares the tables and the snapshot JSON. The tables
// embed the adaptive decision traces, the what-if counters and the
// tuning verdict, so a single flipped probe, victim or replay step
// shows up as a diff.
func TestExperimentsDeterministic(t *testing.T) {
	SetAudit(false)
	SetEvictPolicy(nil)
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			assertDeterministic(t, e.Name, func() (string, error) {
				o, err := e.Run(Small)
				if err != nil {
					return "", err
				}
				raw, err := json.Marshal(o.Snapshot)
				if err != nil {
					return "", err
				}
				return o.Table.String() + string(raw), nil
			})
		})
	}
}
