package projections

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Add(0, 0, 1, Compute, "x")
	if tr.Spans() != nil || tr.Lanes() != 0 {
		t.Fatal("nil tracer should drop everything")
	}
	tr.Reset()
	s := tr.Summarize()
	if s.Wall() != 0 {
		t.Fatal("nil tracer summary should be empty")
	}
	if tr.Timeline(10) != "" {
		t.Fatal("nil tracer timeline should be empty")
	}
}

func TestAddAndSummarize(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 2)
	tr.Add(0, 0, 2, Compute, "k")
	tr.Add(0, 2, 3, Fetch, "f")
	tr.Add(1, 0, 1, IdleWait, "")
	tr.Add(1, 1, 3, Compute, "k")
	s := tr.Summarize()
	if s.Wall() != 3 {
		t.Fatalf("wall = %v, want 3", s.Wall())
	}
	if s.Totals[Compute] != 4 || s.Totals[Fetch] != 1 || s.Totals[IdleWait] != 1 {
		t.Fatalf("totals = %v", s.Totals)
	}
	if s.PerPE[0][Compute] != 2 || s.PerPE[1][Compute] != 2 {
		t.Fatal("per-PE totals wrong")
	}
	// Utilization: 4 compute seconds of 2 lanes x 3 s = 6.
	if got := s.Utilization(2); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestZeroLengthSpanDropped(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	tr.Add(0, 5, 5, Compute, "")
	tr.Add(0, 5, 4, Compute, "")
	if len(tr.Spans()) != 0 {
		t.Fatal("zero/negative spans should be dropped")
	}
}

// TestBeginEnd: each stream event that closes a span records it from
// the event's start to now, in the order the spans close, with its
// category and label; a zero-length lock wait records nothing.
func TestBeginEnd(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	task := &charm.Task{Entry: &charm.Entry{Name: "kernel"}}
	e.Spawn("p", func(p *sim.Proc) {
		p.Sleep(2.5)
		tr.Observe(charm.Event{Kind: charm.EvRunEnd, Lane: 0, Task: task, Start: 0})
		tr.Observe(charm.Event{Kind: charm.EvIdle, Lane: 1, Start: 1})
		tr.Observe(charm.Event{Kind: charm.EvOverhead, Lane: 0, Start: 2})
		tr.Observe(charm.Event{Kind: charm.EvLockWait, Lane: 2, Name: "b", Start: 2.25})
		tr.Observe(charm.Event{Kind: charm.EvLockWait, Lane: 2, Name: "b", Start: 2.5})
		tr.Observe(charm.Event{Kind: charm.EvFetchEnd, Lane: 3, Name: "f", Start: 0.5})
		tr.Observe(charm.Event{Kind: charm.EvEvict, Lane: 3, Name: "v", Start: 1.5})
		tr.Observe(charm.Event{Kind: charm.EvTaskDone, Task: task})
	})
	e.RunAll()
	want := []Span{
		{PE: 0, Start: 0, End: 2.5, Cat: Compute, Label: "kernel"},
		{PE: 1, Start: 1, End: 2.5, Cat: IdleWait, Label: "idle"},
		{PE: 0, Start: 2, End: 2.5, Cat: Overhead, Label: "sched"},
		{PE: 2, Start: 2.25, End: 2.5, Cat: LockWait, Label: "blk:b"},
		{PE: 3, Start: 0.5, End: 2.5, Cat: Fetch, Label: "f"},
		{PE: 3, Start: 1.5, End: 2.5, Cat: Evict, Label: "v"},
	}
	spans := tr.Spans()
	if len(spans) != len(want) {
		t.Fatalf("spans = %+v, want %+v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	if tr.Lanes() != 4 {
		t.Fatalf("lanes = %d, want 4", tr.Lanes())
	}
}

func TestLaneGrowth(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	tr.Add(5, 0, 1, Compute, "")
	if tr.Lanes() != 6 {
		t.Fatalf("lanes = %d, want 6", tr.Lanes())
	}
}

func TestOverheadShare(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	tr.Add(0, 0, 1, Compute, "")
	tr.Add(0, 1, 2, Fetch, "")
	tr.Add(0, 2, 3, LockWait, "")
	tr.Add(0, 3, 4, IdleWait, "")
	s := tr.Summarize()
	if got := s.OverheadShare(1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("overhead share = %v, want 0.75", got)
	}
}

func TestTimelineRendering(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 2)
	tr.Add(0, 0, 5, Compute, "")
	tr.Add(0, 5, 10, Fetch, "")
	tr.Add(1, 0, 10, IdleWait, "")
	tl := tr.Timeline(10)
	if !strings.Contains(tl, "PE  0 |#####fffff|") {
		t.Fatalf("timeline PE0 unexpected:\n%s", tl)
	}
	if !strings.Contains(tl, "PE  1 |..........|") {
		t.Fatalf("timeline PE1 unexpected:\n%s", tl)
	}
	if !strings.Contains(tl, "legend:") {
		t.Fatal("missing legend")
	}
}

func TestTimelineDominantCategory(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	// In a 1-bin timeline, compute (0.7) dominates fetch (0.3).
	tr.Add(0, 0, 0.7, Compute, "")
	tr.Add(0, 0.7, 1.0, Fetch, "")
	tl := tr.Timeline(1)
	if !strings.Contains(tl, "|#|") {
		t.Fatalf("dominant category not compute:\n%s", tl)
	}
}

func TestSummaryTable(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	tr.Add(0, 0, 1, Compute, "")
	tab := tr.Summarize().Table(1)
	if !strings.Contains(tab, "compute") || !strings.Contains(tab, "100.00%") {
		t.Fatalf("table:\n%s", tab)
	}
	if strings.Contains(tab, "fetch") {
		t.Fatal("zero categories should be omitted")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	tr.Add(0, 1, 2, Fetch, "blockA")
	tr.Add(0, 0, 1, Compute, "kern")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal(buf.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Sorted by start time.
	if spans[0].Cat != Compute || spans[1].Cat != Fetch {
		t.Fatalf("unexpected order/categories: %+v", spans)
	}
	if spans[1].Label != "blockA" {
		t.Fatal("label lost in round trip")
	}
}

func TestCategoryJSONUnknown(t *testing.T) {
	var c Category
	if err := c.UnmarshalJSON([]byte(`"nonsense"`)); err == nil {
		t.Fatal("unknown category accepted")
	}
	if err := c.UnmarshalJSON([]byte(`"evict"`)); err != nil || c != Evict {
		t.Fatalf("evict parse: %v %v", c, err)
	}
}

func TestReset(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e, 1)
	tr.Add(0, 0, 1, Compute, "")
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		Compute: "compute", Fetch: "fetch", Evict: "evict",
		LockWait: "lockwait", IdleWait: "idle", Overhead: "overhead", Comm: "comm",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), w)
		}
	}
	if !strings.HasPrefix(Category(99).String(), "Category(") {
		t.Error("unknown category string")
	}
}
