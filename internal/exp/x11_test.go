package exp

import (
	"testing"

	"github.com/hetmem/hetmem/internal/core"
)

// TestX11ReplayAcceptance is the ISSUE's acceptance bar for the replay
// engine: the fidelity leg must reproduce the recorded schedule
// byte-identically, and the what-if leg's policy deltas must agree
// directionally with X10's real fixed runs — non-vacuously (the decl
// replay must actually force evictions for lookahead to avoid).
func TestX11ReplayAcceptance(t *testing.T) {
	SetAudit(false)
	res, err := RunX11(Small)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())

	if !res.Identical {
		t.Errorf("fidelity: replayed schedule diverged from recorded (makespan %v vs %v)",
			res.ReplayedMakespan, res.RecordedMakespan)
	}
	if res.Tasks == 0 || res.Events == 0 {
		t.Errorf("fidelity: empty capture (%d tasks, %d events)", res.Tasks, res.Events)
	}
	// Recording must add zero virtual time (the <=5% acceptance bar
	// holds with an exact-zero expectation).
	if res.OverheadPct != 0 {
		t.Errorf("capture overhead %.6f%% virtual-time delta, want 0 (traced %v vs untraced %v)",
			res.OverheadPct, res.RecordedMakespan, res.UntracedMakespan)
	}

	decl, look := res.Row(core.DeclOrder.Name()), res.Row(core.Lookahead.Name())
	if decl == nil || look == nil {
		t.Fatalf("what-if rows missing: %+v", res.WhatIf)
	}
	if decl.ReplayForced == 0 {
		t.Errorf("what-if: decl replay forced no evictions; the comparison is vacuous")
	}
	if !res.Consistent() {
		t.Errorf("what-if: replayed deltas inconsistent with real runs:\n decl: %+v\n look: %+v", decl, look)
	}
}
