package memsim

import (
	"testing"

	"github.com/hetmem/hetmem/internal/sim"
)

// prefetches is the number of memcpys in the Fig 8 mix: the flows that
// complete and restart every instant.
const prefetches = 4

// fig8Mix starts the steady flow mix of the Fig 8 overflow stencil on a
// KNL 7250 memory system (DDR4 node 0, MCDRAM node 1): 64 read and 64
// write kernel flows on HBM at the 11 GB/s per-core stream rate, plus 4
// DDR→HBM prefetch memcpys at the 8 GB/s single-thread copy rate. The
// kernel flows are large enough that none completes while a benchmark
// runs. The memcpys move 64 MB each and complete together, and each
// one's Then starts its successor, as an IO thread starts its next
// prefetch. So every completion instant holds one completion event,
// four starts and one fill over 132 flows.
func fig8Mix() (*sim.Engine, *System) {
	e := sim.NewEngine(1)
	s := NewSystem(e, []NodeSpec{
		{Name: "DDR4", Kind: DDR, Cap: 96 * gb, ReadBW: 95 * gb, WriteBW: 80 * gb, TotalBW: 90 * gb},
		{Name: "MCDRAM", Kind: HBM, Cap: 16 * gb, ReadBW: 450 * gb, WriteBW: 385 * gb, TotalBW: 465 * gb},
	})
	ddr, hbm := s.Node(0), s.Node(1)
	const bytes = 1e15
	for i := 0; i < 64; i++ {
		s.StartFlow(FlowSpec{Bytes: bytes, Demands: []Demand{{Node: hbm, Access: Read}}, RateCap: 11 * gb})
		s.StartFlow(FlowSpec{Bytes: bytes, Demands: []Demand{{Node: hbm, Access: Write}}, RateCap: 11 * gb})
	}
	memcpy := FlowSpec{Bytes: 64 << 20, Demands: []Demand{{Node: ddr, Access: Read}, {Node: hbm, Access: Write}}, RateCap: 8 * gb}
	var restart func()
	restart = func() { s.StartFlow(memcpy).Then(restart) }
	for i := 0; i < prefetches; i++ {
		restart()
	}
	return e, s
}

// instant runs e through its next instant: for the Fig 8 mix, the
// memcpys' completion, their successors' starts and the fill.
func instant(e *sim.Engine) {
	t, _ := e.PeekTime()
	e.Run(t)
}

// BenchmarkReallocate times one instant of the Fig 8 mix: a completion
// event, four flow starts and one fill over 132 flows.
func BenchmarkReallocate(b *testing.B) {
	e, s := fig8Mix()
	defer e.Close()
	instant(e)
	fills := s.Stats().Fills
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instant(e)
	}
	b.StopTimer()
	if n := s.Stats().Fills - fills; n != int64(b.N) {
		b.Fatalf("%d instants ran %d fills, want one each", b.N, n)
	}
}

// TestReallocateSteadyStateAllocs pins an instant of the Fig 8 mix, a
// completion and four starts with one fill over 132 flows, at exactly
// the four Flow objects its starts return: the scratch slices are
// reused, the completion and fill callbacks are bound once, and
// registering the fill and reserving its event slot allocate nothing.
func TestReallocateSteadyStateAllocs(t *testing.T) {
	e, s := fig8Mix()
	defer e.Close()
	instant(e)
	before := s.Stats()
	const runs = 100
	if n := testing.AllocsPerRun(runs, func() { instant(e) }); n != prefetches {
		t.Fatalf("an instant of %d starts and one fill allocates %v times, want %d (its Flow objects)", prefetches, n, prefetches)
	}
	// AllocsPerRun makes one warm-up call before the counted runs.
	st := s.Stats()
	if got, want := st.Fills-before.Fills, int64(runs+1); got != want {
		t.Errorf("%d instants ran %d fills, want %d", want, got, want)
	}
	if got, want := st.Starts-before.Starts, int64(prefetches*(runs+1)); got != want {
		t.Errorf("%d instants started %d flows, want %d", runs+1, got, want)
	}
	if s.ActiveFlows() != 132 {
		t.Fatalf("ActiveFlows = %d, want 132", s.ActiveFlows())
	}
}
