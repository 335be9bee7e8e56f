package memsim

import (
	"testing"

	"github.com/hetmem/hetmem/internal/sim"
)

// fig8Mix starts the steady flow mix of the Fig 8 overflow stencil on a
// KNL 7250 memory system (DDR4 node 0, MCDRAM node 1): 64 read and 64
// write kernel flows on HBM at the 11 GB/s per-core stream rate, plus 4
// DDR→HBM prefetch memcpys at the 8 GB/s single-thread copy rate. The
// flows are large enough that none completes while a benchmark runs.
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
	for i := 0; i < 4; i++ {
		s.StartFlow(FlowSpec{Bytes: bytes, Demands: []Demand{{Node: ddr, Access: Read}, {Node: hbm, Access: Write}}, RateCap: 8 * gb})
	}
	return e, s
}

// step moves virtual time forward by 1 µs, then integrates progress and
// refills rates, as a flow start or completion does.
func step(e *sim.Engine, s *System) {
	e.Run(e.Now() + 1e-6)
	s.advance()
	s.reallocate()
}

// BenchmarkReallocate times one advance + reallocate over the 132-flow
// Fig 8 mix.
func BenchmarkReallocate(b *testing.B) {
	e, s := fig8Mix()
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(e, s)
	}
}

// TestReallocateSteadyStateAllocs pins the allocator's steady state as
// allocation-free: the scratch slices are reused and the completion
// callback is bound once.
func TestReallocateSteadyStateAllocs(t *testing.T) {
	e, s := fig8Mix()
	defer e.Close()
	step(e, s)
	if n := testing.AllocsPerRun(100, func() { step(e, s) }); n != 0 {
		t.Fatalf("advance+reallocate allocates %v times per call, want 0", n)
	}
	if s.ActiveFlows() != 132 {
		t.Fatalf("ActiveFlows = %d, want 132", s.ActiveFlows())
	}
}
