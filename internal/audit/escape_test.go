package audit

import (
	"reflect"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
)

// These are regression tests for the live-escape class: accessors that
// hand out snapshots must not share mutable backing storage with the
// collector, or a "frozen" view silently drifts as the run continues.

// TestSnapshotHistogramsIsolated pins the Histogram deep-copy in
// Metrics.fill: a plain struct copy shares the Counts slice header, so
// observations recorded after the snapshot would mutate it.
func TestSnapshotHistogramsIsolated(t *testing.T) {
	m := NewMetrics(nil, 1)
	m.Observe(charm.Event{Kind: charm.EvFetchEnd, Bytes: 64, Dur: 0.5})
	m.Observe(charm.Event{Kind: charm.EvEvict, Bytes: 64, Dur: 0.25})

	s := m.Snapshot()
	fetchBefore := append([]int64(nil), s.FetchHist.Counts...)
	evictBefore := append([]int64(nil), s.EvictHist.Counts...)

	m.Observe(charm.Event{Kind: charm.EvFetchEnd, Bytes: 64, Dur: 0.5})
	m.Observe(charm.Event{Kind: charm.EvEvict, Bytes: 64, Dur: 0.25, Forced: true})

	if !reflect.DeepEqual(s.FetchHist.Counts, fetchBefore) {
		t.Fatalf("snapshot FetchHist drifted after later observations: %v -> %v",
			fetchBefore, s.FetchHist.Counts)
	}
	if !reflect.DeepEqual(s.EvictHist.Counts, evictBefore) {
		t.Fatalf("snapshot EvictHist drifted after later observations: %v -> %v",
			evictBefore, s.EvictHist.Counts)
	}

	// The other direction: scribbling on the snapshot must not corrupt
	// the live collector.
	s.FetchHist.Counts[0] = 999
	if got := m.Snapshot().FetchHist.Counts[0]; got == 999 {
		t.Fatal("mutating a snapshot histogram reached the live collector")
	}
}

// TestViolationsReturnsCopy pins the Auditor.Violations copy: the
// returned slice must not alias the auditor's internal record.
func TestViolationsReturnsCopy(t *testing.T) {
	a := New(nil, Config{Budget: 1 << 20})
	a.Violate("test-rule", "first violation")

	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	vs[0].Rule = "scribbled"

	if got := a.Violations()[0].Rule; got != "test-rule" {
		t.Fatalf("mutating the returned slice reached the auditor: rule = %q", got)
	}

	// Appending to the returned slice must not interleave with the
	// auditor's own appends.
	vs = append(vs, Violation{Rule: "caller-local"})
	a.Violate("test-rule-2", "second violation")
	if got := a.Violations()[1].Rule; got != "test-rule-2" {
		t.Fatalf("auditor record corrupted by caller append: rule = %q", got)
	}
}
