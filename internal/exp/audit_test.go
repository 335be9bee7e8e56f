package exp

import "testing"

// TestAuditCleanAcrossFigures runs a representative mix of figure
// drivers on an audited sweep: the ablation sweeps that exercise the
// three fixed races (IO-thread counts, prefetch-depth bounds), a
// capacity-pressure figure, and X8, whose cluster nodes are built
// outside the executor. Every run must finish with zero violations and
// produce a coherent metrics snapshot.
func TestAuditCleanAcrossFigures(t *testing.T) {
	sw := &Sweep{Scale: Small, Audit: true}
	if _, err := sw.AblationIOThreads(); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AblationPrefetchDepth(); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Fig8(); err != nil {
		t.Fatal(err)
	}
	before := len(sw.audits)
	if _, err := sw.Cluster(); err != nil {
		t.Fatal(err)
	}
	// X8 at Small: 1+2+4+8 nodes, each in two modes.
	if got := len(sw.audits) - before; got != 30 {
		t.Fatalf("x8 recorded %d audited nodes, want 30", got)
	}

	snaps := sw.Audits()
	if len(snaps) == 0 {
		t.Fatal("no audited runs recorded")
	}
	var violations int64
	for _, s := range snaps {
		violations += s.ViolationCount
	}
	if violations != 0 {
		for _, s := range snaps {
			for _, v := range s.Violations {
				t.Errorf("%s: %v", s.Mode, v)
			}
		}
		t.Fatalf("%d invariant violation(s) across %d runs", violations, len(snaps))
	}
	for _, s := range snaps {
		if s.Mode == "" {
			t.Fatal("snapshot missing mode")
		}
		if s.HBMBudget <= 0 {
			t.Fatalf("snapshot missing budget: %+v", s)
		}
		if s.Fetches > 0 && s.FetchHist.N != s.Fetches {
			t.Fatalf("%s: fetch histogram %d samples for %d fetches", s.Mode, s.FetchHist.N, s.Fetches)
		}
	}
}

// TestAuditOffByDefault: a sweep without Audit builds unaudited runs
// and records no snapshots.
func TestAuditOffByDefault(t *testing.T) {
	sw := &Sweep{Scale: Small}
	if _, err := sw.AblationQueues(); err != nil {
		t.Fatal(err)
	}
	if snaps := sw.Audits(); len(snaps) != 0 {
		t.Fatalf("unaudited sweep recorded %d snapshots", len(snaps))
	}
}
