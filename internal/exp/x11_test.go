package exp

import (
	"bytes"
	"os"
	"testing"

	"github.com/hetmem/hetmem/internal/core"
)

// TestX11CaptureGolden: a fresh Small fidelity capture equals the
// committed one byte for byte. X11's own gate compares a capture with
// its replay, and both go through the recorder, so a recorder change
// that altered both sides alike would pass it; this pin would not.
func TestX11CaptureGolden(t *testing.T) {
	sw := &Sweep{Scale: Small}
	o, err := sw.do(sw.x11Fidelity(true))
	if err != nil {
		t.Fatal(err)
	}
	c := o.Capture
	want, err := os.ReadFile("../trace/testdata/x11-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("fresh capture (%d bytes) differs from internal/trace/testdata/x11-small.jsonl (%d bytes)", len(got), len(want))
	}
}

// TestX11ReplayAcceptance is the ISSUE's acceptance bar for the replay
// engine: the fidelity leg must reproduce the recorded schedule
// byte-identically, and the what-if leg's policy deltas must agree
// directionally with X10's real fixed runs — non-vacuously (the decl
// replay must actually force evictions for lookahead to avoid).
func TestX11ReplayAcceptance(t *testing.T) {
	res, err := (&Sweep{Scale: Small}).X11()
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
