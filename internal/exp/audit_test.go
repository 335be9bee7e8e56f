package exp

import "testing"

// TestAuditCleanAcrossFigures runs a representative mix of figure
// drivers with the invariant auditor enabled on every environment they
// build: the ablation sweeps that exercise the three fixed races
// (IO-thread counts, prefetch-depth bounds), a capacity-pressure
// figure, and X8, whose cluster nodes are built outside newEnv. Every
// run must finish with zero violations and produce a coherent metrics
// snapshot.
func TestAuditCleanAcrossFigures(t *testing.T) {
	SetAudit(true)
	defer SetAudit(false)

	if _, err := RunAblationIOThreads(Small); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAblationPrefetchDepth(Small); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig8(Small); err != nil {
		t.Fatal(err)
	}
	before := len(auditEnvs)
	if _, err := RunCluster(Small); err != nil {
		t.Fatal(err)
	}
	// X8 at Small: 1+2+4+8 nodes, each in two modes.
	if got := len(auditEnvs) - before; got != 30 {
		t.Fatalf("x8 enrolled %d audited nodes, want 30", got)
	}

	snaps, violations := DrainAudit()
	if len(snaps) == 0 {
		t.Fatal("no audited environments registered")
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
	// The registry must have drained.
	if again, _ := DrainAudit(); len(again) != 0 {
		t.Fatal("DrainAudit did not clear the registry")
	}
}

// TestAuditOffByDefault: without SetAudit, drivers build unaudited
// environments and DrainAudit has nothing.
func TestAuditOffByDefault(t *testing.T) {
	if _, err := RunAblationQueues(Small); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := DrainAudit(); len(snaps) != 0 {
		t.Fatalf("unaudited run registered %d snapshots", len(snaps))
	}
}
