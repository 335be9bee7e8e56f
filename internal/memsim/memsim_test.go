package memsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/hetmem/hetmem/internal/sim"
)

const (
	gb = 1 << 30
)

// testSystem builds a two-node HBM+DDR system with round numbers:
// DDR 100 GB/s read, 80 GB/s write, 96 GB; HBM 400 GB/s read, 380 GB/s
// write, 16 GB.
func testSystem(e *sim.Engine) *System {
	return NewSystem(e, []NodeSpec{
		{Name: "DDR4", Kind: DDR, Cap: 96 * gb, ReadBW: 100 * gb, WriteBW: 80 * gb},
		{Name: "MCDRAM", Kind: HBM, Cap: 16 * gb, ReadBW: 400 * gb, WriteBW: 380 * gb},
	})
}

// transfer moves bytes from src to dst as a blocking memcpy-style flow,
// consuming src read bandwidth and dst write bandwidth simultaneously
// (plus both nodes' fixed latency once, before the flow starts), and
// returns the elapsed virtual time.
func (s *System) transfer(p *sim.Proc, bytes float64, src, dst *Node, rateCap float64) sim.Time {
	t0 := s.e.Now()
	if lat := src.Latency + dst.Latency; lat > 0 {
		p.Sleep(lat)
	}
	f := s.StartFlow(FlowSpec{
		Bytes:   bytes,
		Demands: []Demand{{Node: src, Access: Read}, {Node: dst, Access: Write}},
		RateCap: rateCap,
	})
	f.Wait(p)
	return s.e.Now() - t0
}

// readStream streams bytes from node as a blocking flow consuming read
// bandwidth only (a load-dominated kernel), and returns the elapsed
// virtual time.
func (s *System) readStream(p *sim.Proc, bytes float64, node *Node, rateCap float64) sim.Time {
	t0 := s.e.Now()
	f := s.StartFlow(FlowSpec{
		Bytes:   bytes,
		Demands: []Demand{{Node: node, Access: Read}},
		RateCap: rateCap,
	})
	f.Wait(p)
	return s.e.Now() - t0
}

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Fatalf("%s = %g, want %g (±%.2g rel)", what, got, want, tol)
	}
}

func TestNodeLookup(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	if s.Node(0).Kind != DDR || s.Node(1).Kind != HBM {
		t.Fatal("node id convention broken: want DDR=0, HBM=1")
	}
	if s.NodeByKind(HBM).Name != "MCDRAM" {
		t.Fatal("NodeByKind(HBM) wrong")
	}
	if s.NodeByKind(NVM) != nil {
		t.Fatal("NodeByKind(NVM) should be nil")
	}
	if len(s.Nodes()) != 2 {
		t.Fatal("Nodes() length")
	}
}

func TestNodeKindString(t *testing.T) {
	if HBM.String() != "HBM" || DDR.String() != "DDR" || NVM.String() != "NVM" {
		t.Fatal("NodeKind.String broken")
	}
	if NodeKind(42).String() != "NodeKind(42)" {
		t.Fatal("unknown kind string")
	}
}

func TestReserveRelease(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	hbm := s.Node(1)
	if !hbm.Reserve(10 * gb) {
		t.Fatal("reserve 10GB failed")
	}
	if hbm.Used() != 10*gb || hbm.Free() != 6*gb {
		t.Fatalf("used=%d free=%d", hbm.Used(), hbm.Free())
	}
	if hbm.Reserve(7 * gb) {
		t.Fatal("over-reserve succeeded")
	}
	if hbm.FailedAllocs != 1 {
		t.Fatalf("FailedAllocs = %d, want 1", hbm.FailedAllocs)
	}
	hbm.Release(10 * gb)
	if hbm.Used() != 0 {
		t.Fatal("release did not restore")
	}
	if hbm.PeakUsed != 10*gb {
		t.Fatalf("PeakUsed = %d", hbm.PeakUsed)
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	s.Node(0).Release(1)
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var dur sim.Time
	e.Spawn("reader", func(p *sim.Proc) {
		dur = s.readStream(p, 100*gb, s.Node(0), 0)
	})
	e.RunAll()
	almost(t, dur, 1.0, 1e-6, "uncontended 100GB read at 100GB/s")
}

func TestFlowRateCap(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var dur sim.Time
	e.Spawn("reader", func(p *sim.Proc) {
		dur = s.readStream(p, 10*gb, s.Node(0), 10*gb) // capped at 10 GB/s
	})
	e.RunAll()
	almost(t, dur, 1.0, 1e-6, "capped read")
}

func TestFairShareTwoFlows(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var d1, d2 sim.Time
	e.Spawn("r1", func(p *sim.Proc) { d1 = s.readStream(p, 50*gb, s.Node(0), 0) })
	e.Spawn("r2", func(p *sim.Proc) { d2 = s.readStream(p, 50*gb, s.Node(0), 0) })
	e.RunAll()
	// Both share 100 GB/s -> 50 GB/s each -> 1 s each.
	almost(t, d1, 1.0, 1e-6, "flow1")
	almost(t, d2, 1.0, 1e-6, "flow2")
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var dLong sim.Time
	e.Spawn("long", func(p *sim.Proc) { dLong = s.readStream(p, 100*gb, s.Node(0), 0) })
	e.Spawn("short", func(p *sim.Proc) { s.readStream(p, 25*gb, s.Node(0), 0) })
	e.RunAll()
	// Phase 1: both at 50 GB/s until short finishes at t=0.5 (25GB).
	// Long has 75 GB left, then runs at 100 GB/s -> 0.75 s more.
	almost(t, dLong, 1.25, 1e-6, "long flow duration")
}

func TestTransferUsesBothNodes(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var toHBM, toDDR sim.Time
	e.Spawn("mover", func(p *sim.Proc) {
		// DDR->HBM: min(DDR read 100, HBM write 380) = 100 GB/s.
		toHBM = s.transfer(p, 100*gb, s.Node(0), s.Node(1), 0)
		// HBM->DDR: min(HBM read 400, DDR write 80) = 80 GB/s.
		toDDR = s.transfer(p, 100*gb, s.Node(1), s.Node(0), 0)
	})
	e.RunAll()
	almost(t, toHBM, 1.0, 1e-6, "DDR->HBM transfer")
	almost(t, toDDR, 100.0/80.0, 1e-6, "HBM->DDR transfer")
	if toDDR <= toHBM {
		t.Fatal("HBM->DDR should be slower than DDR->HBM (Fig 7 asymmetry)")
	}
}

func TestTransferLatency(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e, []NodeSpec{
		{Name: "A", Kind: DDR, Cap: gb, ReadBW: gb, WriteBW: gb, Latency: 0.25},
		{Name: "B", Kind: HBM, Cap: gb, ReadBW: gb, WriteBW: gb, Latency: 0.25},
	})
	var dur sim.Time
	e.Spawn("mover", func(p *sim.Proc) {
		dur = s.transfer(p, gb/2, s.Node(0), s.Node(1), 0)
	})
	e.RunAll()
	almost(t, dur, 1.0, 1e-6, "0.5s transfer + 0.5s latency")
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var log []string
	var dur sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		p.Sleep(0.5)
		f := s.StartFlow(FlowSpec{
			Bytes:   0,
			Demands: []Demand{{Node: s.Node(0), Access: Read}},
		})
		if !f.Done() {
			t.Error("zero-byte flow not done at start")
		}
		// Then on a done flow schedules the callback at now, behind
		// the events already queued for this instant.
		e.Schedule(e.Now(), func() { log = append(log, "queued before Then") })
		f.Then(func() { log = append(log, fmt.Sprintf("then at %v", e.Now())) })
		dur = f.Wait(p)
		log = append(log, "waiter")
	})
	e.RunAll()
	if dur != 0 {
		t.Fatalf("zero flow duration %v", dur)
	}
	want := []string{"waiter", "queued before Then", "then at 0.5"}
	if !slices.Equal(log, want) {
		t.Fatalf("order %q, want %q", log, want)
	}
}

// TestThenRunsAfterWaiters: on a pending flow, the Then callback is
// scheduled at the completion instant after every waiter's wake, so
// the waiters run first.
func TestThenRunsAfterWaiters(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	f := s.StartFlow(FlowSpec{Bytes: gb, Demands: []Demand{{Node: s.Node(0), Access: Read}}})
	var log []string
	f.Then(func() { log = append(log, fmt.Sprintf("then at %v", e.Now())) })
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *sim.Proc) {
			f.Wait(p)
			log = append(log, name)
		})
	}
	e.RunAll()
	want := []string{"w1", "w2", "w3", fmt.Sprintf("then at %v", f.Duration())}
	if !slices.Equal(log, want) {
		t.Fatalf("order %q, want %q", log, want)
	}
}

func TestSecondThenPanics(t *testing.T) {
	for _, bytes := range []float64{0, gb} {
		e := sim.NewEngine(1)
		s := testSystem(e)
		f := s.StartFlow(FlowSpec{Bytes: bytes, Demands: []Demand{{Node: s.Node(0), Access: Read}}})
		f.Then(func() {})
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%v-byte flow: second Then did not panic", bytes)
				}
			}()
			f.Then(func() {})
		}()
	}
}

func TestManyCappedFlowsAggregate(t *testing.T) {
	// 64 cores each capped at 10 GB/s reading from DDR (100 GB/s):
	// aggregate pinned at node bandwidth; each core gets 100/64.
	e := sim.NewEngine(1)
	s := testSystem(e)
	durs := make([]sim.Time, 64)
	for i := 0; i < 64; i++ {
		i := i
		e.Spawn(fmt.Sprintf("core%d", i), func(p *sim.Proc) {
			durs[i] = s.readStream(p, gb, s.Node(0), 10*gb)
		})
	}
	e.RunAll()
	want := 64.0 / 100.0 // 1GB at 100/64 GB/s
	for i, d := range durs {
		almost(t, d, want, 1e-6, fmt.Sprintf("core %d duration", i))
	}
}

func TestCappedFlowsUnderSubscribed(t *testing.T) {
	// 4 flows capped at 10 GB/s on a 100 GB/s node: each runs at its
	// cap, not at 25 GB/s.
	e := sim.NewEngine(1)
	s := testSystem(e)
	var dur sim.Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			dur = s.readStream(p, 10*gb, s.Node(0), 10*gb)
		})
	}
	e.RunAll()
	almost(t, dur, 1.0, 1e-6, "capped under-subscribed flow")
}

func TestHBMvsDDRBandwidthRatio(t *testing.T) {
	// The headline hardware property: with 64 streaming cores, HBM
	// aggregate ~4x DDR aggregate.
	e := sim.NewEngine(1)
	s := testSystem(e)
	measure := func(node *Node) float64 {
		var total float64
		var wg sim.WaitGroup
		wg.Add(64)
		start := e.Now()
		done := make(chan struct{})
		_ = done
		for i := 0; i < 64; i++ {
			e.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
				s.readStream(p, gb, node, 12*gb)
				wg.Done()
			})
		}
		e.Spawn("join", func(p *sim.Proc) {
			wg.Wait(p)
			total = 64 * float64(gb) / (p.Now() - start)
		})
		e.RunAll()
		return total
	}
	ddr := measure(s.Node(0))
	hbm := measure(s.Node(1))
	ratio := hbm / ddr
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("HBM/DDR aggregate ratio = %.2f, want ~4", ratio)
	}
}

func TestMigrationContendsWithKernel(t *testing.T) {
	// A kernel streaming from DDR while a migration reads DDR too:
	// they share DDR read bandwidth, so the kernel slows down. This is
	// the interference that makes "when to prefetch" interesting.
	e := sim.NewEngine(1)
	s := testSystem(e)
	var alone, contended sim.Time
	e.Spawn("alone", func(p *sim.Proc) {
		alone = s.readStream(p, 50*gb, s.Node(0), 0)
	})
	e.RunAll()
	e2 := sim.NewEngine(1)
	s2 := testSystem(e2)
	e2.Spawn("kernel", func(p *sim.Proc) {
		contended = s2.readStream(p, 50*gb, s2.Node(0), 0)
	})
	e2.Spawn("migration", func(p *sim.Proc) {
		s2.transfer(p, 50*gb, s2.Node(0), s2.Node(1), 0)
	})
	e2.RunAll()
	if contended <= alone {
		t.Fatalf("contended kernel (%.3f) not slower than alone (%.3f)", contended, alone)
	}
}

func TestFlowAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	e.Spawn("mover", func(p *sim.Proc) {
		s.transfer(p, 10*gb, s.Node(0), s.Node(1), 0)
	})
	e.RunAll()
	almost(t, s.Node(0).BytesRead, 10*gb, 1e-6, "DDR bytes read")
	almost(t, s.Node(1).BytesWritten, 10*gb, 1e-6, "HBM bytes written")
	if s.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after completion", s.ActiveFlows())
	}
}

func TestFlowRemainingAndDone(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var f *Flow
	e.Spawn("starter", func(p *sim.Proc) {
		f = s.StartFlow(FlowSpec{
			Bytes:   100 * gb,
			Demands: []Demand{{Node: s.Node(0), Access: Read}},
		})
		p.Sleep(0.5)
		rem := f.Remaining()
		almost(t, rem, 50*gb, 1e-6, "remaining at t=0.5")
		if f.Done() {
			t.Error("flow done too early")
		}
		f.Wait(p)
		if !f.Done() {
			t.Error("flow not done after Wait")
		}
		almost(t, f.Duration(), 1.0, 1e-6, "duration")
	})
	e.RunAll()
}

func TestDeterministicRates(t *testing.T) {
	run := func() []sim.Time {
		e := sim.NewEngine(3)
		s := testSystem(e)
		out := make([]sim.Time, 10)
		for i := 0; i < 10; i++ {
			i := i
			e.Spawn(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				p.Sleep(sim.Time(i) * 0.01)
				if i%2 == 0 {
					out[i] = s.readStream(p, gb*float64(i+1), s.Node(0), 15*gb)
				} else {
					out[i] = s.transfer(p, gb*float64(i+1), s.Node(0), s.Node(1), 15*gb)
				}
			})
		}
		e.RunAll()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic flow %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNegativeFlowPanics(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	defer func() {
		if recover() == nil {
			t.Fatal("negative flow did not panic")
		}
	}()
	s.StartFlow(FlowSpec{Bytes: -1, Demands: []Demand{{Node: s.Node(0), Access: Read}}})
}

// TestNonFiniteFlowPanics is the regression for flows that could never
// complete: a +Inf or NaN size, or a NaN cap, used to be accepted and
// left the flow active with its completion event past sim.Infinity, so
// RunAll returned without completing it and no stall was reported.
func TestNonFiniteFlowPanics(t *testing.T) {
	for _, spec := range []struct {
		name         string
		bytes, limit float64
	}{
		{"+Inf bytes", math.Inf(1), 0},
		{"NaN bytes", math.NaN(), 0},
		{"NaN cap", gb, math.NaN()},
	} {
		t.Run(spec.name, func(t *testing.T) {
			s := testSystem(sim.NewEngine(1))
			defer func() {
				if recover() == nil {
					t.Fatal("flow was accepted")
				}
				if s.ActiveFlows() != 0 {
					t.Fatalf("rejected flow left %d flows active", s.ActiveFlows())
				}
			}()
			s.StartFlow(FlowSpec{Bytes: spec.bytes, Demands: []Demand{{Node: s.Node(0), Access: Read}}, RateCap: spec.limit})
		})
	}
}

// TestInfiniteCapIsUncapped checks that a +Inf RateCap still means
// uncapped, and that it shares a class with RateCap 0.
func TestInfiniteCapIsUncapped(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var d1, d2 sim.Time
	e.Spawn("inf", func(p *sim.Proc) { d1 = s.readStream(p, 50*gb, s.Node(0), math.Inf(1)) })
	e.Spawn("zero", func(p *sim.Proc) { d2 = s.readStream(p, 50*gb, s.Node(0), 0) })
	e.RunAll()
	almost(t, d1, 1.0, 1e-6, "+Inf-capped flow")
	almost(t, d2, 1.0, 1e-6, "uncapped flow")
}

func TestNoDemandsPanics(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	defer func() {
		if recover() == nil {
			t.Fatal("flow without demands did not panic")
		}
	}()
	s.StartFlow(FlowSpec{Bytes: 1})
}

func TestBusLimitsMixedTraffic(t *testing.T) {
	// A node with read 95, write 80, bus 90: a read flow and a write
	// flow together cannot exceed 90 GB/s combined.
	e := sim.NewEngine(1)
	s := NewSystem(e, []NodeSpec{
		{Name: "DDR4", Kind: DDR, Cap: 96 * gb, ReadBW: 95 * gb, WriteBW: 80 * gb, TotalBW: 90 * gb},
	})
	var rDur, wDur sim.Time
	e.Spawn("r", func(p *sim.Proc) { rDur = s.readStream(p, 45*gb, s.Node(0), 0) })
	e.Spawn("w", func(p *sim.Proc) {
		f := s.StartFlow(FlowSpec{Bytes: 45 * gb, Demands: []Demand{{Node: s.Node(0), Access: Write}}})
		wDur = f.Wait(p)
	})
	e.RunAll()
	// Fair share of the 90 bus: 45 each -> 1 s each.
	almost(t, rDur, 1.0, 1e-6, "read under bus limit")
	almost(t, wDur, 1.0, 1e-6, "write under bus limit")
}

func TestBusDefaultsToSumOfDirections(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e) // no TotalBW set
	if got, want := s.Node(0).TotalBW(), 180.0*gb; got != want {
		t.Fatalf("default bus = %g, want %g", got, want)
	}
	// Read and write can then proceed at full directional rates.
	var rDur sim.Time
	e.Spawn("r", func(p *sim.Proc) { rDur = s.readStream(p, 100*gb, s.Node(0), 0) })
	e.Spawn("w", func(p *sim.Proc) {
		f := s.StartFlow(FlowSpec{Bytes: 80 * gb, Demands: []Demand{{Node: s.Node(0), Access: Write}}})
		f.Wait(p)
	})
	e.RunAll()
	almost(t, rDur, 1.0, 1e-6, "read at full rate despite concurrent write")
}

func TestSameNodeCopyChargesBusTwice(t *testing.T) {
	// An intra-node memcpy reads and writes the same bus: 10 GB copied
	// moves 20 GB across a 90 GB/s bus when read/write pools allow.
	e := sim.NewEngine(1)
	s := NewSystem(e, []NodeSpec{
		{Name: "DDR4", Kind: DDR, Cap: 96 * gb, ReadBW: 95 * gb, WriteBW: 80 * gb, TotalBW: 90 * gb},
	})
	var dur sim.Time
	e.Spawn("cp", func(p *sim.Proc) {
		dur = s.transfer(p, 10*gb, s.Node(0), s.Node(0), 0)
	})
	e.RunAll()
	almost(t, dur, 20.0/90.0, 1e-6, "same-node copy limited by bus both ways")
}

func TestFlowRateObservable(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var rates []float64
	e.Spawn("watch", func(p *sim.Proc) {
		f1 := s.StartFlow(FlowSpec{Bytes: 100 * gb, Demands: []Demand{{Node: s.Node(0), Access: Read}}})
		p.Sleep(0.1)
		rates = append(rates, f1.Rate()) // alone: 100 GB/s
		f2 := s.StartFlow(FlowSpec{Bytes: 100 * gb, Demands: []Demand{{Node: s.Node(0), Access: Read}}})
		p.Sleep(0.1)
		rates = append(rates, f1.Rate(), f2.Rate()) // shared: 50 each
		f1.Wait(p)
		f2.Wait(p)
	})
	e.RunAll()
	almost(t, rates[0], 100*gb, 1e-9, "solo rate")
	almost(t, rates[1], 50*gb, 1e-9, "shared rate f1")
	almost(t, rates[2], 50*gb, 1e-9, "shared rate f2")
}

func TestDurationPanicsOnUnfinished(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	f := s.StartFlow(FlowSpec{Bytes: gb, Demands: []Demand{{Node: s.Node(0), Access: Read}}})
	defer func() {
		if recover() == nil {
			t.Fatal("Duration on unfinished flow did not panic")
		}
	}()
	f.Duration()
}

func TestBadNodeSpecPanics(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-bandwidth node accepted")
		}
	}()
	NewSystem(e, []NodeSpec{{Name: "bad", Cap: 1, ReadBW: 0, WriteBW: 1}})
}

func TestNodeLookupOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node id accepted")
		}
	}()
	s.Node(7)
}

// TestChainOrderIgnoresSpecOrder builds a three-node system in every
// spec order and checks Chain and NodeByKind resolve nodes by kind —
// the regression for the positional "DDR is node 0, HBM is node 1"
// lookups, which swapped near and far memory whenever a spec listed
// nodes in a different order.
func TestChainOrderIgnoresSpecOrder(t *testing.T) {
	specs := []NodeSpec{
		{Name: "MCDRAM", Kind: HBM, Cap: 16 * gb, ReadBW: 400 * gb, WriteBW: 380 * gb},
		{Name: "DDR4", Kind: DDR, Cap: 96 * gb, ReadBW: 100 * gb, WriteBW: 80 * gb},
		{Name: "NVDIMM", Kind: NVM, Cap: 384 * gb, ReadBW: 32 * gb, WriteBW: 12 * gb},
	}
	want := []string{"MCDRAM", "DDR4", "NVDIMM"}
	for _, p := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		order := []NodeSpec{specs[p[0]], specs[p[1]], specs[p[2]]}
		s := NewSystem(sim.NewEngine(1), order)
		chain := s.Chain()
		for i, name := range want {
			if chain[i].Name != name {
				t.Fatalf("spec order %v: chain[%d] = %s, want %s", p, i, chain[i].Name, name)
			}
		}
		if s.NodeByKind(HBM).Name != "MCDRAM" || s.NodeByKind(NVM).Name != "NVDIMM" {
			t.Fatalf("spec order %v: NodeByKind resolves wrong nodes", p)
		}
		// IDs still follow spec order — only chain position is semantic.
		for i := range order {
			if s.Node(i).Name != order[i].Name {
				t.Fatalf("spec order %v: node IDs no longer match spec indices", p)
			}
		}
	}
}

// TestTierRank pins the chain ordering of the kinds.
func TestTierRank(t *testing.T) {
	ranks := []NodeKind{HBM, DDR, NVM, Remote}
	for i, k := range ranks {
		if k.TierRank() != i {
			t.Fatalf("%s rank = %d, want %d", k, k.TierRank(), i)
		}
	}
	if Remote.String() != "Remote" {
		t.Fatal("Remote kind string")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TierRank on unknown kind should panic")
		}
	}()
	NodeKind(42).TierRank()
}

// TestDeferredCompletionKeepsItsSlot checks that the completion event
// the end-of-instant fill schedules fires where an eager fill at the
// instant's last change would have put it: before an event scheduled
// after that change for the same time. Flow A, 1 GB at 1 GB/s,
// completes at exactly t=1; flow B, in another class and running until
// t=10, only changes the flow set.
func TestDeferredCompletionKeepsItsSlot(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	var a *Flow
	sawDone := false
	e.Schedule(0, func() {
		a = s.StartFlow(FlowSpec{Bytes: gb, Demands: []Demand{{Node: s.Node(0), Access: Read}}, RateCap: gb})
		s.StartFlow(FlowSpec{Bytes: 10 * gb, Demands: []Demand{{Node: s.Node(1), Access: Read}}, RateCap: gb})
		e.Schedule(1, func() { sawDone = a.Done() })
	})
	e.RunAll()
	if a.Duration() != 1 {
		t.Fatalf("flow A took %v, want exactly 1", a.Duration())
	}
	if !sawDone {
		t.Fatal("an event scheduled after the starts for t=1 ran before flow A's completion")
	}
}

// TestStatsCountFillsPerInstant checks the allocator's counters: any
// number of starts in one instant share one fill, and each instant with
// a start gets its own.
func TestStatsCountFillsPerInstant(t *testing.T) {
	e := sim.NewEngine(1)
	s := testSystem(e)
	start := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				s.StartFlow(FlowSpec{Bytes: 100 * gb, Demands: []Demand{{Node: s.Node(i % 2), Access: Read}}, RateCap: 10 * gb})
			}
			s.StartFlow(FlowSpec{Bytes: 0, Demands: []Demand{{Node: s.Node(0), Access: Read}}})
		}
	}
	e.Schedule(0.25, start(5))
	e.Run(0.5)
	if got, want := s.Stats(), (Stats{Starts: 5, Fills: 1, FillFlows: 5}); got != want {
		t.Fatalf("after one instant of 5 starts: Stats %+v, want %+v", got, want)
	}
	e.Schedule(0.75, start(3))
	e.Run(1)
	if got, want := s.Stats(), (Stats{Starts: 8, Fills: 2, FillFlows: 13}); got != want {
		t.Fatalf("after a second instant of 3 starts: Stats %+v, want %+v", got, want)
	}
	e.RunAll()
	st := s.Stats()
	if st.Completions == 0 || st.Fills > st.Starts+st.Completions {
		t.Fatalf("after RunAll: Stats %+v, want completions and at most one fill per change", st)
	}
}

// TestCompletionDelayBelowULP is the regression for a livelock: once the
// clock is large, now+remaining/rate can round to now, and the completion
// event then fired at the same instant forever, moving no bytes. The
// plans are the two reproductions on the KNL MCDRAM node: an uncapped
// read at 450 GB/s and a read capped at the 11 GB/s per-core rate.
func TestCompletionDelayBelowULP(t *testing.T) {
	for _, pf := range []plannedFlow{
		{start: 85.99913344186518, bytes: 2524946432, src: 1, dst: -1},
		{start: 1499.4476561730858, bytes: 1278242816, cap: 11 * gb, src: 1, dst: -1},
	} {
		if _, err := runPlan(flowPlan{flows: []plannedFlow{pf}}); err != nil {
			t.Errorf("flow of %v bytes capped at %v started at %v: %v", pf.bytes, pf.cap, pf.start, err)
		}
	}
}

// TestAwaitSteps: a sim.Proc.Drive step that streams flows one after
// another through Await ends at the time Wait's loop does, with the
// same events, and resumes its process only to start it and at the
// end.
func TestAwaitSteps(t *testing.T) {
	var stats [2]sim.EventStats
	var ends [2]sim.Time
	for i, stepped := range []bool{false, true} {
		e := sim.NewEngine(1)
		s := testSystem(e)
		ddr := s.NodeByKind(DDR)
		start := func() *Flow {
			return s.StartFlow(FlowSpec{Bytes: gb, Demands: []Demand{{Node: ddr, Access: Read}}})
		}
		e.Spawn("reader", func(p *sim.Proc) {
			if !stepped {
				for k := 0; k < 3; k++ {
					start().Wait(p)
				}
				return
			}
			var f *Flow
			k := 0
			p.Drive(func() bool {
				for {
					if f != nil && f.Await(p) {
						return false
					}
					if k == 3 {
						return true
					}
					f, k = start(), k+1
				}
			})
		})
		ends[i] = e.RunAll()
		stats[i] = e.EventStats()
		e.Close()
	}
	if ends[0] != ends[1] {
		t.Errorf("stepped flows ended at %v, Wait's at %v", ends[1], ends[0])
	}
	if stats[1].Resumes != 2 || stats[1].Resumes+stats[1].Steps != stats[0].Resumes {
		t.Errorf("stepped: %d resumes and %d steps, want 2 resumes and %d wakes in all", stats[1].Resumes, stats[1].Steps, stats[0].Resumes)
	}
	stats[0].Resumes, stats[1].Resumes, stats[1].Steps = 0, 0, 0
	if stats[0] != stats[1] {
		t.Errorf("EventStats %+v stepped, %+v with Wait", stats[1], stats[0])
	}
}

// TestCloseReapsFlowStep: Close unwinds a process parked in a Drive
// step that waits on a flow, and leaves no goroutine.
func TestCloseReapsFlowStep(t *testing.T) {
	before := runtime.NumGoroutine()
	e := sim.NewEngine(1)
	s := testSystem(e)
	f := s.StartFlow(FlowSpec{Bytes: 1000 * gb, Demands: []Demand{{Node: s.NodeByKind(DDR), Access: Read}}})
	e.Spawn("reader", func(p *sim.Proc) {
		p.Drive(func() bool { return !f.Await(p) })
	})
	e.Run(1)
	if n := e.LiveProcs(); n != 1 || f.Done() {
		t.Fatalf("LiveProcs = %d, flow done %v: want the reader parked on the flow", n, f.Done())
	}
	e.Close()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", n)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("NumGoroutine after Close = %d, want at most %d as before Spawn", n, before)
	}
}
