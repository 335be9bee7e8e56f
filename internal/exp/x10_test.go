package exp

import (
	"testing"

	"github.com/hetmem/hetmem/internal/core"
)

// TestX10PolicyAcceptance is the ISSUE's acceptance bar for the victim
// policies: on the Fig 8 overflow point and on the shift workload,
// Lookahead must force strictly fewer evictions of still-needed blocks
// and cause strictly fewer refetches than declaration order — and the
// comparison must be non-vacuous (DeclOrder actually forces some).
func TestX10PolicyAcceptance(t *testing.T) {
	res, err := (&Sweep{Scale: Small}).X10()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())

	for _, workload := range []string{"fig8-stencil", "shift"} {
		decl := res.Row(workload, core.DeclOrder.Name())
		look := res.Row(workload, core.Lookahead.Name())
		if decl == nil || look == nil {
			t.Fatalf("%s: missing policy rows", workload)
		}
		if decl.Forced == 0 {
			t.Errorf("%s: DeclOrder forced no evictions; the point exerts no pressure", workload)
		}
		if look.Forced >= decl.Forced {
			t.Errorf("%s: lookahead forced %d evictions, decl %d; want strictly fewer",
				workload, look.Forced, decl.Forced)
		}
		if look.Refetches >= decl.Refetches {
			t.Errorf("%s: lookahead caused %d refetches, decl %d; want strictly fewer",
				workload, look.Refetches, decl.Refetches)
		}
	}

	// Adaptive run: the settled-phase guard must detect the shift and
	// re-open the climb, the victim watch must upgrade to Lookahead,
	// and the controller must settle again after the shift.
	if res.Reopens < 1 {
		t.Errorf("adaptive: controller never reopened the climb (trace below)\n%s", res.Table())
	}
	if res.FinalPolicy() != core.Lookahead.Name() {
		t.Errorf("adaptive: final victim policy %s, want %s", res.FinalPolicy(), core.Lookahead.Name())
	}
	if res.ConvergedWindow < 0 {
		t.Errorf("adaptive: controller did not re-settle after the shift")
	} else if res.ReopenWindow >= 0 && res.ConvergedWindow <= res.ReopenWindow {
		t.Errorf("adaptive: settled w%d not after reopen w%d", res.ConvergedWindow, res.ReopenWindow)
	}
}

// TestFig8DeterministicPerPolicy re-runs the Fig 8 sweep under each
// victim policy, each run on a fresh sweep: every policy must be
// deterministic, not just the default.
func TestFig8DeterministicPerPolicy(t *testing.T) {
	for _, pol := range core.EvictPolicies() {
		assertDeterministic(t, "fig8/"+pol.Name(), func() (string, error) {
			r, err := (&Sweep{Scale: Small, EvictPolicy: pol}).Fig8()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		})
	}
}

// TestAuditCleanPerPolicy runs the capacity-pressure figure with the
// full invariant auditor under each victim policy: reordering victims
// must never break conservation, staging or transition invariants.
func TestAuditCleanPerPolicy(t *testing.T) {
	for _, pol := range core.EvictPolicies() {
		sw := &Sweep{Scale: Small, Audit: true, EvictPolicy: pol}
		if _, err := sw.Fig8(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		snaps := sw.Audits()
		if len(snaps) == 0 {
			t.Fatalf("%s: no audited runs recorded", pol.Name())
		}
		var violations int64
		for _, s := range snaps {
			violations += s.ViolationCount
		}
		if violations != 0 {
			for _, s := range snaps {
				for _, v := range s.Violations {
					t.Errorf("%s/%s: %v", pol.Name(), s.Mode, v)
				}
			}
			t.Fatalf("%s: %d invariant violation(s)", pol.Name(), violations)
		}
	}
}
