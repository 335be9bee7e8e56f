package audit

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
)

// TestNilAuditorIsSafe: every method on a nil *Auditor must be a no-op,
// since core holds one possibly-nil pointer and calls through it on the
// hot paths.
func TestNilAuditorIsSafe(t *testing.T) {
	var a *Auditor
	a.Violate("x", "y")
	a.CheckNow()
	a.Reserve(1)
	a.ConsumeReservation(1)
	a.RefundReservation(1)
	a.Pin(1)
	a.Claim(-1)
	a.PendingUse(1)
	a.CheckInflight(0, 3, 2)
	a.Stall(&StallReport{})
	a.CheckQuiescent()
	if a.Metrics() != nil {
		t.Fatal("nil auditor must have nil metrics")
	}
	if !a.Ok() {
		t.Fatal("nil auditor must be Ok")
	}
	if a.Err() != nil {
		t.Fatal("nil auditor must have nil Err")
	}
	if a.Violations() != nil || a.StallReport() != nil {
		t.Fatal("nil auditor must return nil slices")
	}
	if s := a.Snapshot(); s.ViolationCount != 0 {
		t.Fatal("nil auditor snapshot must be zero")
	}
}

// TestHistogramBuckets checks decade bucketing including the underflow
// and overflow edges.
func TestHistogramBuckets(t *testing.T) {
	h := newDurationHist()
	cases := []struct {
		d    float64
		want int // bucket index
	}{
		{1e-6, 0},             // below the first bound
		{1e-5, 0},             // exactly on a bound lands in its bucket
		{5e-4, 2},             // between 1e-4 and 1e-3
		{0.5, 5},              // between 0.1 and 1: bucket bounded above by 1
		{1000, len(h.Bounds)}, // overflow bucket
	}
	for _, c := range cases {
		h.observe(c.d)
		if h.Counts[c.want] == 0 {
			t.Fatalf("d=%g did not land in bucket %d: %v", c.d, c.want, h.Counts)
		}
		h.Counts[c.want] = 0
	}
	if h.N != int64(len(cases)) {
		t.Fatalf("N=%d want %d", h.N, len(cases))
	}
	if h.Max != 1000 {
		t.Fatalf("Max=%g want 1000", h.Max)
	}
}

// TestLedgerViolations drives the shadow ledger into each violation via
// a fake probe.
func TestLedgerViolations(t *testing.T) {
	var pr Probe
	a := New(nil, Config{Budget: 100, Queues: 2, Probe: func() Probe { return pr }})

	// Clean path: reserve 60, consume 60, probe agrees throughout.
	pr = Probe{HBMUsed: 0, Reserved: 60}
	a.Reserve(60)
	pr = Probe{HBMUsed: 60, Reserved: 0}
	a.ConsumeReservation(60)
	a.CheckQuiescent() // reserved 0, bytes balance — but pins etc are 0 too
	if !a.Ok() {
		t.Fatalf("clean sequence flagged: %v", a.Err())
	}
	// Peaks come from the companion metrics collector (the owner emits
	// a pressure sample wherever the counters move) and flow into the
	// snapshot.
	a.Metrics().Observe(charm.Event{Kind: charm.EvPressure, Used: 0, Reserved: 60})
	a.Metrics().Observe(charm.Event{Kind: charm.EvPressure, Used: 60, Reserved: 0})
	if s := a.Snapshot(); s.HBMHighWater != 60 || s.ReservedPeak != 60 {
		t.Fatalf("peaks not tracked: %+v", s)
	}

	// Capacity breach: used + reserved > budget.
	pr = Probe{HBMUsed: 80, Reserved: 30}
	a.Reserve(30)
	if a.Ok() {
		t.Fatal("capacity breach not flagged")
	}
	if a.Violations()[0].Rule != "capacity" {
		t.Fatalf("rule = %q", a.Violations()[0].Rule)
	}
}

// TestLedgerMismatch: the probe disagreeing with the shadow counter is
// the signature of a double-spend or leak.
func TestLedgerMismatch(t *testing.T) {
	a := New(nil, Config{Budget: 100, Probe: func() Probe { return Probe{Reserved: 7} }})
	a.CheckNow()
	if a.Ok() {
		t.Fatal("ledger mismatch not flagged")
	}
	if a.Violations()[0].Rule != "reservation-ledger" {
		t.Fatalf("rule = %q", a.Violations()[0].Rule)
	}
}

// TestQuiescenceChecks seeds each conservation law separately. The
// probe, when a case sets one, stands in for the manager's Stats.
func TestQuiescenceChecks(t *testing.T) {
	fetched := func(a *Auditor) {
		a.Metrics().Observe(charm.Event{Kind: charm.EvFetchEnd, Bytes: 10, Dur: 0.1, Policy: "decl"})
	}
	cases := []struct {
		name  string
		prep  func(a *Auditor)
		probe Probe
		rule  string
	}{
		{"leaked reservation", func(a *Auditor) { a.Reserve(5) }, Probe{}, "quiescence-reserved"},
		{"double refund", func(a *Auditor) {
			a.Reserve(5)
			a.ConsumeReservation(5)
			a.RefundReservation(0)
			a.bytesRefunded += 5
			a.reserved = 0
		}, Probe{}, "quiescence-ledger"},
		{"pin leak", func(a *Auditor) { a.Pin(2) }, Probe{}, "quiescence-pins"},
		{"claim leak", func(a *Auditor) { a.Claim(1) }, Probe{}, "quiescence-claims"},
		{"pending-use leak", func(a *Auditor) { a.PendingUse(3) }, Probe{}, "quiescence-pending"},
		{"fetch unseen", func(*Auditor) {}, Probe{Fetches: 1}, "metrics-fetches"},
		{"evict unseen", fetched, Probe{Fetches: 1, Evictions: 1}, "metrics-evictions"},
		{"forced unattributed", func(a *Auditor) {
			a.Metrics().Observe(charm.Event{Kind: charm.EvEvict, Dur: 0.1, Policy: "decl"})
		}, Probe{Evictions: 1, ForcedEvictions: 1}, "metrics-policy-split"},
		{"refetch unattributed", fetched, Probe{Fetches: 1, Refetches: 1}, "metrics-policy-split"},
		{"edge miscount", fetched, Probe{Fetches: 1, BytesFetched: 10,
			EdgeBytes: map[string]int64{"DDR4->MCDRAM": 5}}, "edge-fetch-conservation"},
		{"edge bypass", func(*Auditor) {}, Probe{EdgeBytes: map[string]int64{"NVM->DDR4": 5}}, "edge-bypass"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probe := func() Probe {
				pr := c.probe
				pr.Reserved = 0
				return pr
			}
			a := New(nil, Config{Budget: 100, Probe: probe, NearTier: "MCDRAM"})
			c.prep(a)
			a.CheckQuiescent()
			var found bool
			for _, v := range a.Violations() {
				if v.Rule == c.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("rule %q not raised; got %v", c.rule, a.Violations())
			}
		})
	}
}

// TestNegativeBalances: decrementing past zero fires immediately, not
// just at quiescence.
func TestNegativeBalances(t *testing.T) {
	a := New(nil, Config{})
	a.Pin(-1)
	a.Claim(-1)
	a.PendingUse(-1)
	if a.Snapshot().ViolationCount != 3 {
		t.Fatalf("want 3 violations, got %v", a.Violations())
	}
}

// TestViolationCap: the stored list is bounded but the count is not.
func TestViolationCap(t *testing.T) {
	a := New(nil, Config{MaxViolations: 3})
	for i := 0; i < 10; i++ {
		a.Violate("test", "violation %d", i)
	}
	if len(a.Violations()) != 3 {
		t.Fatalf("stored %d, want 3", len(a.Violations()))
	}
	if a.Snapshot().ViolationCount != 10 {
		t.Fatalf("counted %d, want 10", a.Snapshot().ViolationCount)
	}
}

// TestInflightBound: exceeding a positive bound is a violation; bound 0
// means unlimited.
func TestInflightBound(t *testing.T) {
	a := New(nil, Config{Queues: 2})
	m := a.Metrics()
	inflight := func(pe, n int) { m.Observe(charm.Event{Kind: charm.EvInflight, Lane: pe, N: n}) }
	inflight(0, 2)
	a.CheckInflight(0, 2, 2)
	inflight(1, 50)
	a.CheckInflight(1, 50, 0) // unlimited
	if !a.Ok() {
		t.Fatalf("within-bound flagged: %v", a.Err())
	}
	inflight(0, 3)
	a.CheckInflight(0, 3, 2)
	if a.Ok() {
		t.Fatal("over-bound not flagged")
	}
	s := a.Snapshot()
	if s.InflightPeak[0] != 3 || s.InflightPeak[1] != 50 {
		t.Fatalf("peaks %v", s.InflightPeak)
	}
}

// TestQueueDepthGrows: recording a queue index beyond the configured
// count grows the peak slice instead of panicking.
func TestQueueDepthGrows(t *testing.T) {
	m := NewMetrics(nil, 1)
	m.Observe(charm.Event{Kind: charm.EvQueueDepth, Lane: 4, N: 7})
	m.Observe(charm.Event{Kind: charm.EvQueueDepth, Lane: 4, N: 3}) // lower depth must not shrink the peak
	s := m.Snapshot()
	if len(s.QueueDepthPeak) != 5 || s.QueueDepthPeak[4] != 7 {
		t.Fatalf("peaks %v", s.QueueDepthPeak)
	}
}

// TestStallReportString: the rendered diagnostic names tasks, handles
// and the capacity picture.
func TestStallReportString(t *testing.T) {
	a := New(nil, Config{})
	r := &StallReport{
		Time:         12.5,
		BlockedProcs: []string{"IO-0"},
		Stuck: []StuckTask{{
			Task: "kern[3]", PE: 1, Queue: 1,
			Deps: []BlockInfo{{Name: "blkA", Size: 1 << 30, State: "in-ddr", Refs: 0, Claims: 1}},
		}},
		HBMUsed: 900, Reserved: 100, Budget: 1000,
	}
	a.Stall(r)
	if a.Ok() {
		t.Fatal("stall must be a violation")
	}
	out := a.StallReport().String()
	for _, want := range []string{"kern[3]", "blkA", "IO-0", "budget 1000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if snap := a.Snapshot(); snap.Stall == nil {
		t.Fatal("snapshot must carry the stall report")
	}
}

// TestSnapshotJSONRoundTrip: the snapshot survives marshal/unmarshal
// with every field intact.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	a := New(nil, Config{Budget: 1 << 30, Queues: 2})
	a.Reserve(100)
	a.ConsumeReservation(100)
	a.Metrics().Observe(charm.Event{Kind: charm.EvFetchEnd, Bytes: 100, Dur: 0.02, Policy: "decl"})
	a.Metrics().Observe(charm.Event{Kind: charm.EvEvict, Bytes: 100, Dur: 0.01, Policy: "decl", Forced: true})
	a.Metrics().Observe(charm.Event{Kind: charm.EvQueueDepth, Lane: 1, N: 4})
	s := a.Snapshot()
	// The owner fills its own fields, the movement counters included.
	s.Label = "unit"
	s.Mode = "multi-io"
	s.Fetches, s.Evictions, s.ForcedEvictions, s.StageRetries = 1, 1, 1, 1

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != "unit" || back.Mode != "multi-io" ||
		back.Fetches != 1 || back.Evictions != 1 ||
		back.ForcedEvictions != 1 || back.StageRetries != 1 ||
		back.FetchHist.N != 1 || back.QueueDepthPeak[1] != 4 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
