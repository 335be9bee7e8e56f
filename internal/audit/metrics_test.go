package audit

import (
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
)

// TestNilMetricsIsSafe: every reader of a nil *Metrics reads as empty,
// mirroring the nil-auditor contract, so a manager without metrics
// hands out a plain nil pointer.
func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	if m.HBMHighWater() != 0 {
		t.Fatal("nil metrics high-water mark must be zero")
	}
	if pc := m.PolicyCountersFor("decl"); pc != (PolicyCounters{}) {
		t.Fatalf("nil metrics policy counters must be zero: %+v", pc)
	}
	if s := m.Snapshot(); s.FetchHist.N != 0 || s.HBMHighWater != 0 {
		t.Fatal("nil metrics snapshot must be zero")
	}
}

// TestMetricsCounters: the collector keeps what the manager's Stats do
// not — the duration histograms, the per-policy split and the peaks —
// and ignores every other kind on the stream.
func TestMetricsCounters(t *testing.T) {
	m := NewMetrics(nil, 2)
	for _, e := range []charm.Event{
		{Kind: charm.EvFetchEnd, Dur: 0.02, Policy: "decl"},
		{Kind: charm.EvFetchEnd, Dur: 0.01, Policy: "lru", Refetch: true},
		{Kind: charm.EvEvict, Dur: 0.01, Policy: "decl", Forced: true},
		{Kind: charm.EvStageRetry, Bytes: 10, Used: 90, Reserved: 95},
		{Kind: charm.EvPressure, Used: 80, Reserved: 20},
		{Kind: charm.EvPressure, Used: 40, Reserved: 60},
		{Kind: charm.EvQueueDepth, Lane: 1, N: 4},
		{Kind: charm.EvInflight, Lane: 0, N: 2},
		{Kind: charm.EvSend},
		{Kind: charm.EvTaskDone},
	} {
		m.Observe(e)
	}
	if m.HBMHighWater() != 80 {
		t.Fatalf("HBM high water %d, want 80", m.HBMHighWater())
	}
	if pc := m.PolicyCountersFor("decl"); pc != (PolicyCounters{Evictions: 1, ForcedEvictions: 1}) {
		t.Fatalf("decl counters %+v", pc)
	}
	if pc := m.PolicyCountersFor("lru"); pc != (PolicyCounters{Refetches: 1}) {
		t.Fatalf("lru counters %+v", pc)
	}
	s := m.Snapshot()
	if s.FetchHist.N != 2 || s.EvictHist.N != 1 || s.FetchHist.Sum != 0.03 {
		t.Fatalf("histograms not filled: %+v %+v", s.FetchHist, s.EvictHist)
	}
	if s.ReservedPeak != 60 || s.QueueDepthPeak[1] != 4 || s.InflightPeak[0] != 2 {
		t.Fatalf("peaks not tracked: %+v", s)
	}
	if s.Fetches != 0 || s.StageRetries != 0 {
		t.Fatalf("the collector filled counters the manager owns: %+v", s)
	}
}

// TestAuditorSharesMetrics: an auditor built over an external collector
// reports that collector's data in its snapshot (the adaptive
// controller and the auditor see one set of numbers).
func TestAuditorSharesMetrics(t *testing.T) {
	m := NewMetrics(nil, 1)
	a := New(nil, Config{Budget: 100, Metrics: m})
	if a.Metrics() != m {
		t.Fatal("auditor must expose the shared collector")
	}
	m.Observe(charm.Event{Kind: charm.EvFetchEnd, Dur: 0.1, Policy: "decl"})
	if s := a.Snapshot(); s.FetchHist.N != 1 {
		t.Fatalf("snapshot missed the shared collector: %+v", s)
	}
}
