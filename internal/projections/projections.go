// Package projections is a performance-tracing facility modelled on the
// Charm++ Projections tool the paper uses for Figures 5 and 6. A Tracer
// attached to the runtime's event stream turns its spans into typed
// activity spans per PE lane; the package produces per-category
// summaries, ASCII timelines and JSON dumps, which is how the
// reproduction renders the paper's "red = wait/overhead" timeline
// comparisons.
package projections

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// Category classifies what a PE (or IO thread) is doing during a span.
type Category int

const (
	// Compute is application kernel execution (white/useful in
	// Projections).
	Compute Category = iota
	// Fetch is data prefetch from far memory into HBM.
	Fetch
	// Evict is data eviction from HBM back to far memory.
	Evict
	// LockWait is time blocked acquiring queue or data-block locks.
	LockWait
	// IdleWait is time with no runnable task (the dominant "red" in
	// the paper's single-IO-thread timeline).
	IdleWait
	// Overhead is scheduling/pre/post-processing bookkeeping.
	Overhead
	// Comm is communication (ghost exchange message handling).
	Comm

	numCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case Fetch:
		return "fetch"
	case Evict:
		return "evict"
	case LockWait:
		return "lockwait"
	case IdleWait:
		return "idle"
	case Overhead:
		return "overhead"
	case Comm:
		return "comm"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// glyph is the timeline character for the category.
func (c Category) glyph() byte {
	switch c {
	case Compute:
		return '#'
	case Fetch:
		return 'f'
	case Evict:
		return 'e'
	case LockWait:
		return 'L'
	case IdleWait:
		return '.'
	case Overhead:
		return 'o'
	case Comm:
		return 'c'
	default:
		return '?'
	}
}

// Categories lists all categories in display order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Span is one recorded activity interval on a PE lane.
type Span struct {
	PE    int      `json:"pe"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	Cat   Category `json:"category"`
	Label string   `json:"label,omitempty"`
}

// Duration returns the span length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Tracer collects spans: attached to a runtime (charm.Runtime.Attach),
// it records each span of the event stream as the span closes. A nil
// *Tracer reads as empty.
type Tracer struct {
	eng   *sim.Engine
	lanes int
	spans []Span
}

// NewTracer returns a tracer for lanes PE lanes on engine e.
func NewTracer(e *sim.Engine, lanes int) *Tracer {
	return &Tracer{eng: e, lanes: lanes}
}

// Lanes returns the number of PE lanes.
func (t *Tracer) Lanes() int {
	if t == nil {
		return 0
	}
	return t.lanes
}

// Add records a completed span. Zero-length spans are dropped.
func (t *Tracer) Add(pe int, start, end sim.Time, cat Category, label string) {
	if t == nil || end <= start {
		return
	}
	if pe >= t.lanes {
		t.lanes = pe + 1
	}
	t.spans = append(t.spans, Span{PE: pe, Start: start, End: end, Cat: cat, Label: label})
}

// Observe implements charm.Sink: an event that closes a span records
// it, from the event's start to now, on the event's lane.
func (t *Tracer) Observe(e charm.Event) {
	switch e.Kind {
	case charm.EvRunEnd:
		t.Add(e.Lane, e.Start, t.eng.Now(), Compute, e.Task.Entry.Name)
	case charm.EvIdle:
		t.Add(e.Lane, e.Start, t.eng.Now(), IdleWait, "idle")
	case charm.EvOverhead:
		t.Add(e.Lane, e.Start, t.eng.Now(), Overhead, "sched")
	case charm.EvLockWait:
		if e.Start < t.eng.Now() {
			t.Add(e.Lane, e.Start, t.eng.Now(), LockWait, "blk:"+e.Name)
		}
	case charm.EvFetchEnd:
		t.Add(e.Lane, e.Start, t.eng.Now(), Fetch, e.Name)
	case charm.EvEvict:
		t.Add(e.Lane, e.Start, t.eng.Now(), Evict, e.Name)
	}
}

// Spans returns a copy of all recorded spans in recording order. The
// copy matters: Reset truncates the backing array in place, so an
// aliased return would be silently overwritten by post-Reset spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return append([]Span(nil), t.spans...)
}

// Reset discards all recorded spans (e.g. after warm-up iterations).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans = t.spans[:0]
}

// Summary aggregates span time by category, per PE and in total.
type Summary struct {
	Start, End sim.Time
	PerPE      []map[Category]sim.Time
	Totals     map[Category]sim.Time
}

// Summarize computes a Summary over all recorded spans.
func (t *Tracer) Summarize() Summary {
	s := Summary{Totals: make(map[Category]sim.Time)}
	if t == nil || len(t.spans) == 0 {
		return s
	}
	s.Start, s.End = t.spans[0].Start, t.spans[0].End
	s.PerPE = make([]map[Category]sim.Time, t.lanes)
	for i := range s.PerPE {
		s.PerPE[i] = make(map[Category]sim.Time)
	}
	for _, sp := range t.spans {
		if sp.Start < s.Start {
			s.Start = sp.Start
		}
		if sp.End > s.End {
			s.End = sp.End
		}
		d := sp.Duration()
		s.Totals[sp.Cat] += d
		s.PerPE[sp.PE][sp.Cat] += d
	}
	return s
}

// Wall returns the wall-clock extent of the summary.
func (s Summary) Wall() sim.Time { return s.End - s.Start }

// Fraction returns category time as a fraction of total PE-time
// (lanes x wall clock).
func (s Summary) Fraction(c Category, lanes int) float64 {
	w := s.Wall() * sim.Time(lanes)
	if w <= 0 {
		return 0
	}
	return s.Totals[c] / w
}

// Utilization is the Compute fraction of total PE-time: the quantity
// the paper's Projections timelines visualise (non-red share).
func (s Summary) Utilization(lanes int) float64 { return s.Fraction(Compute, lanes) }

// OverheadShare sums the non-compute, non-comm categories (the "red"):
// fetch + evict + lockwait + idle + overhead.
func (s Summary) OverheadShare(lanes int) float64 {
	return s.Fraction(Fetch, lanes) + s.Fraction(Evict, lanes) +
		s.Fraction(LockWait, lanes) + s.Fraction(IdleWait, lanes) +
		s.Fraction(Overhead, lanes)
}

// Table renders the summary as an aligned text table, one row per
// category with absolute seconds and percentage of PE-time.
func (s Summary) Table(lanes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %8s\n", "category", "pe-seconds", "share")
	for _, c := range Categories() {
		if s.Totals[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %12.4f %7.2f%%\n", c, s.Totals[c], 100*s.Fraction(c, lanes))
	}
	fmt.Fprintf(&b, "%-10s %12.4f\n", "wallclock", s.Wall())
	return b.String()
}

// Timeline renders an ASCII timeline, one row per PE lane and width
// character bins across [Start, End]. Each bin shows the glyph of the
// category with the most time in that bin; empty bins print '-'.
func (t *Tracer) Timeline(width int) string {
	if t == nil || len(t.spans) == 0 || width <= 0 {
		return ""
	}
	s := t.Summarize()
	span := s.Wall()
	if span <= 0 {
		return ""
	}
	binDur := span / sim.Time(width)
	// weights[pe][bin][cat]
	weights := make([][][numCategories]sim.Time, t.lanes)
	for i := range weights {
		weights[i] = make([][numCategories]sim.Time, width)
	}
	for _, sp := range t.spans {
		b0 := int((sp.Start - s.Start) / binDur)
		b1 := int((sp.End - s.Start) / binDur)
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			lo := s.Start + sim.Time(b)*binDur
			hi := lo + binDur
			if sp.Start > lo {
				lo = sp.Start
			}
			if sp.End < hi {
				hi = sp.End
			}
			if hi > lo {
				weights[sp.PE][b][sp.Cat] += hi - lo
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "t=[%.4fs .. %.4fs], %d bins of %.5fs\n", s.Start, s.End, width, binDur)
	for pe := 0; pe < t.lanes; pe++ {
		fmt.Fprintf(&b, "PE%3d |", pe)
		for bin := 0; bin < width; bin++ {
			best, bestW := byte('-'), sim.Time(0)
			for c := 0; c < int(numCategories); c++ {
				if w := weights[pe][bin][c]; w > bestW {
					bestW = w
					best = Category(c).glyph()
				}
			}
			b.WriteByte(best)
		}
		b.WriteString("|\n")
	}
	b.WriteString("legend: #=compute f=fetch e=evict L=lockwait .=idle o=overhead c=comm -=empty\n")
	return b.String()
}

// WriteJSON dumps all spans as a JSON array (Projections log export).
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].PE < sorted[j].PE
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// CategoryJSON round-trips Category through its name for readability.
func (c Category) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON parses a category name.
func (c *Category) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for _, cand := range Categories() {
		if cand.String() == s {
			*c = cand
			return nil
		}
	}
	return fmt.Errorf("projections: unknown category %q", s)
}
