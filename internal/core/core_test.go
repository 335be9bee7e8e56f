package core

import (
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

const gb = topology.GB

// tinySpec is a small machine that makes capacity arithmetic obvious:
// 4 GB HBM (3 GB budget after the 1 GB reserve), 32 GB DDR, HBM 4x DDR
// bandwidth.
func tinySpec() topology.MachineSpec {
	return topology.MachineSpec{
		Name:    "tiny",
		Cores:   8,
		SMTWays: 2,
		TilesL2: 4,

		HBMCap:     4 * gb,
		HBMReadBW:  400 * topology.GBf,
		HBMWriteBW: 380 * topology.GBf,

		DDRCap:     32 * gb,
		DDRReadBW:  100 * topology.GBf,
		DDRWriteBW: 80 * topology.GBf,

		CoreStreamBW: 40 * topology.GBf,
		MemcpyBW:     20 * topology.GBf,
		CoreFlops:    20e9,

		MemoryMode:  topology.Flat,
		ClusterMode: topology.Quadrant,
	}
}

// env bundles a ready-to-run simulated runtime + manager.
type env struct {
	e  *sim.Engine
	m  *topology.Machine
	rt *charm.Runtime
	mg *Manager
	tr *projections.Tracer
}

func newEnv(t *testing.T, numPEs int, opts Options) *env {
	t.Helper()
	// Every strategy test runs with the invariant auditor enabled; the
	// quiescence checks in assertQuiescent assert it stayed clean.
	opts.Audit = true
	e := sim.NewEngine(42)
	m := tinySpec().MustBuild(e)
	rt := charm.NewRuntime(m, numPEs, charm.DefaultParams())
	tr := projections.NewTracer(e, numPEs)
	rt.Attach(tr)
	mg := NewManager(rt, opts)
	t.Cleanup(e.Close)
	return &env{e: e, m: m, rt: rt, mg: mg, tr: tr}
}

func TestModeStrings(t *testing.T) {
	for mode, want := range map[Mode]string{
		DDROnly:  "DDR4only",
		Baseline: "Naive",
		SingleIO: "Single IO thread",
		NoIO:     "No IO thread",
		MultiIO:  "Multiple IO threads",
	} {
		if mode.String() != want {
			t.Errorf("%d.String() = %q, want %q", mode, mode.String(), want)
		}
	}
	if !strings.HasPrefix(Mode(99).String(), "Mode(") {
		t.Error("unknown mode string")
	}
	if DDROnly.Moves() || Baseline.Moves() {
		t.Error("static modes claim to move data")
	}
	if !SingleIO.Moves() || !NoIO.Moves() || !MultiIO.Moves() {
		t.Error("movement modes deny moving data")
	}
}

func TestBlockStateStrings(t *testing.T) {
	for st, want := range map[BlockState]string{
		InDDR: "INDDR", InHBM: "INHBM", Fetching: "FETCHING", Evicting: "EVICTING",
	} {
		if st.String() != want {
			t.Errorf("state %d = %q, want %q", st, st.String(), want)
		}
	}
}

func TestHandlePlacementByMode(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		want BlockState
	}{
		{DDROnly, InDDR},
		{SingleIO, InDDR},
		{NoIO, InDDR},
		{MultiIO, InDDR},
		{Baseline, InHBM},
	} {
		env := newEnv(t, 2, DefaultOptions(tc.mode))
		h := env.mg.NewHandle("b", 1*gb)
		if h.State() != tc.want {
			t.Errorf("mode %v: initial state %v, want %v", tc.mode, h.State(), tc.want)
		}
	}
}

func TestBaselineFillsHBMThenOverflows(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(Baseline))
	// Budget is 3 GB (4 GB - 1 GB reserve): three 1 GB blocks in HBM,
	// the fourth overflows to DDR whole.
	var handles []*Handle
	for i := 0; i < 4; i++ {
		handles = append(handles, env.mg.NewHandle("b", 1*gb))
	}
	for i := 0; i < 3; i++ {
		if handles[i].State() != InHBM {
			t.Fatalf("block %d not in HBM", i)
		}
	}
	if handles[3].State() != InDDR {
		t.Fatal("overflow block not on DDR")
	}
	if env.m.HBM().Used() != 3*gb {
		t.Fatalf("HBM used %d, want 3GB", env.m.HBM().Used())
	}
}

func TestNewHandleValidation(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(DDROnly))
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size handle did not panic")
		}
	}()
	env.mg.NewHandle("bad", 0)
}

func TestHBMBudget(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(SingleIO))
	if env.mg.HBMBudget() != 3*gb {
		t.Fatalf("budget %d, want 3GB", env.mg.HBMBudget())
	}
	if !env.mg.hbmFits(3 * gb) {
		t.Fatal("3GB should fit")
	}
	if env.mg.hbmFits(3*gb + 1) {
		t.Fatal("3GB+1 should not fit")
	}
}

// oocApp is a minimal out-of-core application: n chares, each owning a
// private ReadWrite block, each running iters [prefetch] kernel
// invocations synchronised by a barrier.
type oocApp struct {
	env     *env
	arr     *charm.Array
	kern    *charm.Entry
	handles []*Handle
	done    bool
	iters   int
	curIter int
	iterEnd []sim.Time
	// onBarrier, when non-nil, runs at each iteration boundary (the
	// quiescent point where Retune is legal).
	onBarrier func()
}

type oocChare struct{ block *Handle }

func buildApp(env *env, nChares int, blockSize int64, iters int, shared []*Handle) *oocApp {
	app := &oocApp{env: env, iters: iters}
	for i := 0; i < nChares; i++ {
		app.handles = append(app.handles, env.mg.NewHandle("blk", blockSize))
	}
	app.arr = env.rt.NewArray("ooc", nChares, func(i int) charm.Chare {
		return &oocChare{block: app.handles[i]}
	}, nil)
	var red *charm.Reduction
	red = env.rt.NewReduction(nChares, func() {
		app.curIter++
		app.iterEnd = append(app.iterEnd, env.e.Now())
		if app.onBarrier != nil {
			app.onBarrier()
		}
		if app.curIter < app.iters {
			app.arr.Broadcast(-1, app.kern, nil)
		} else {
			app.done = true
		}
	})
	app.kern = app.arr.Register(charm.Entry{
		Name:     "kern",
		Prefetch: true,
		Deps: func(el *charm.Element, msg *charm.Message) []charm.DataDep {
			deps := []charm.DataDep{{Handle: el.Obj.(*oocChare).block, Mode: charm.ReadWrite}}
			for _, h := range shared {
				deps = append(deps, charm.DataDep{Handle: h, Mode: charm.ReadOnly})
			}
			return deps
		},
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
			env.mg.RunKernel(p, el.Array().Entry("kern").Deps(el, msg), KernelSpec{TrafficScale: 1})
			red.Contribute()
		},
	})
	return app
}

func (app *oocApp) run(t *testing.T) {
	t.Helper()
	app.env.rt.Main(func(p *sim.Proc) { app.arr.Broadcast(-1, app.kern, nil) })
	app.env.e.RunAll()
	if !app.done {
		t.Fatalf("application deadlocked: %d/%d iterations, blocked procs %v",
			app.curIter, app.iters, app.env.e.BlockedProcNames())
	}
}

// assertQuiescent checks post-run invariants: no pins left, budget
// respected at peak, every block back in a stable state.
func assertQuiescent(t *testing.T, env *env) {
	t.Helper()
	for _, h := range env.mg.Handles() {
		if h.Refs() != 0 {
			t.Fatalf("block %s still has %d refs after quiescence", h.BlockName(), h.Refs())
		}
		if h.State() == Fetching || h.State() == Evicting {
			t.Fatalf("block %s stuck in %v", h.BlockName(), h.State())
		}
	}
	if peak := env.m.HBM().PeakUsed; peak > env.m.HBM().Cap-env.mg.Options().HBMReserve {
		t.Fatalf("HBM peak %d exceeded budget %d", peak, env.mg.HBMBudget())
	}
	if aud := env.mg.Auditor(); aud != nil && !aud.Ok() {
		t.Fatalf("auditor recorded violations: %v", aud.Err())
	}
}

func TestEndToEndStrategies(t *testing.T) {
	// Working set: 12 chares x 512 MB = 6 GB against a 3 GB budget —
	// data must cycle through HBM.
	for _, mode := range []Mode{SingleIO, NoIO, MultiIO} {
		t.Run(mode.String(), func(t *testing.T) {
			env := newEnv(t, 4, DefaultOptions(mode))
			app := buildApp(env, 12, 512*1024*1024, 3, nil)
			app.run(t)
			assertQuiescent(t, env)
			if env.mg.Stats.Fetches == 0 {
				t.Fatal("no fetches happened despite out-of-core working set")
			}
			if env.mg.Stats.Evictions == 0 {
				t.Fatal("no evictions happened")
			}
			if env.rt.Stats.TasksExecuted != 12*3 {
				t.Fatalf("executed %d tasks, want 36", env.rt.Stats.TasksExecuted)
			}
		})
	}
}

func TestWorkingSetFitsNoEvictionsNeeded(t *testing.T) {
	// 4 chares x 512 MB = 2 GB fits the 3 GB budget; with eager
	// eviction blocks still bounce, but with lazy eviction each block
	// is fetched exactly once.
	opts := DefaultOptions(MultiIO)
	opts.EvictLazily = true
	env := newEnv(t, 4, opts)
	app := buildApp(env, 4, 512*1024*1024, 5, nil)
	app.run(t)
	assertQuiescent(t, env)
	if env.mg.Stats.Fetches != 4 {
		t.Fatalf("fetches = %d, want 4 (one per block, then resident)", env.mg.Stats.Fetches)
	}
	if env.mg.Stats.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 under lazy eviction with fitting WS", env.mg.Stats.Evictions)
	}
}

func TestEagerEvictionCyclesBlocks(t *testing.T) {
	// Under NoIO, eviction is synchronous in post-processing, before
	// the next iteration's messages exist: every task completion
	// evicts its block, which must be re-fetched next iteration.
	env := newEnv(t, 4, DefaultOptions(NoIO))
	app := buildApp(env, 4, 512*1024*1024, 5, nil)
	app.run(t)
	assertQuiescent(t, env)
	// Some completions race the barrier broadcast (whose TaskCreated
	// lookahead then retains the block), so the exact count varies,
	// but well over half the tasks must re-fetch.
	if f := env.mg.Stats.Fetches; f <= 10 || f > 20 {
		t.Fatalf("fetches = %d, want in (10,20] under eager eviction", f)
	}
	if env.mg.Stats.Evictions < 8 {
		t.Fatalf("evictions = %d, want >= 8", env.mg.Stats.Evictions)
	}
}

func TestAsyncEvictionSkipsBlocksWithQueuedUses(t *testing.T) {
	// Under MultiIO, eviction is asynchronous: by the time the IO
	// thread processes the eviction request, the next iteration's
	// task has been enqueued and its dependence lookahead
	// (pendingUses) keeps the block resident — one fetch per block
	// for the whole run.
	env := newEnv(t, 4, DefaultOptions(MultiIO))
	app := buildApp(env, 4, 512*1024*1024, 5, nil)
	app.run(t)
	assertQuiescent(t, env)
	if env.mg.Stats.Fetches != 4 {
		t.Fatalf("fetches = %d, want 4 (lookahead keeps blocks resident)", env.mg.Stats.Fetches)
	}
}

func TestSharedReadOnlyBlocksNotEvictedWhileInUse(t *testing.T) {
	// All chares share one read-only block (matmul-style reuse): the
	// refcount keeps it resident while any task is scheduled on it.
	env := newEnv(t, 4, DefaultOptions(SingleIO))
	shared := env.mg.NewHandle("sharedRO", 1*gb)
	app := buildApp(env, 8, 128*1024*1024, 2, []*Handle{shared})
	app.run(t)
	assertQuiescent(t, env)
	// The shared block is fetched far fewer times than it is used:
	// reuse across the 8 tasks per iteration.
	if shared.Fetches >= 16 {
		t.Fatalf("shared block fetched %d times for 16 uses — no reuse", shared.Fetches)
	}
	if shared.Fetches < 1 {
		t.Fatal("shared block never fetched")
	}
}

func TestSingleIOFastPathInline(t *testing.T) {
	// Second iteration under lazy eviction finds all blocks resident:
	// the fast path runs tasks inline without staging.
	opts := DefaultOptions(SingleIO)
	opts.EvictLazily = true
	env := newEnv(t, 2, opts)
	app := buildApp(env, 2, 256*1024*1024, 3, nil)
	app.run(t)
	if env.mg.Stats.TasksInline == 0 {
		t.Fatal("fast path never taken despite resident blocks")
	}
	assertQuiescent(t, env)
}

func TestOversizedTaskPanics(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(SingleIO))
	h := env.mg.NewHandle("huge", 10*gb) // over the 3 GB budget
	arr := env.rt.NewArray("a", 1, func(i int) charm.Chare { return nil }, nil)
	kern := arr.Register(charm.Entry{
		Name:     "kern",
		Prefetch: true,
		Deps: func(el *charm.Element, msg *charm.Message) []charm.DataDep {
			return []charm.DataDep{{Handle: h, Mode: charm.ReadWrite}}
		},
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {},
	})
	env.rt.Main(func(p *sim.Proc) { arr.Send(-1, 0, kern, nil) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "HBM budget") {
			t.Fatalf("oversized task panic = %v", r)
		}
	}()
	env.e.RunAll()
}

func TestKernelHBMvsDDRRatio(t *testing.T) {
	// Fig. 2's microcosm: the same kernel on an HBM-resident block vs
	// a DDR-resident block, many cores at once.
	measure := func(baselineHBM bool) sim.Time {
		mode := Baseline
		if !baselineHBM {
			mode = DDROnly
		}
		env := newEnv(t, 8, DefaultOptions(mode))
		app := buildApp(env, 8, 256*1024*1024, 1, nil)
		app.run(t)
		return app.iterEnd[0]
	}
	hbm := measure(true)
	ddr := measure(false)
	ratio := float64(ddr) / float64(hbm)
	if ratio < 2.0 {
		t.Fatalf("DDR/HBM kernel time ratio %.2f, want >= 2 (paper: ~3x)", ratio)
	}
}

func TestKernelFlopFloor(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(Baseline))
	h := env.mg.NewHandle("b", 1024*1024) // 1 MB: memory time tiny
	var dur sim.Time
	env.e.Spawn("k", func(p *sim.Proc) {
		dur = env.mg.RunKernel(p,
			[]charm.DataDep{{Handle: h, Mode: charm.ReadOnly}},
			KernelSpec{Flops: 20e9}) // exactly 1 s at 20 GF/s
	})
	env.e.RunAll()
	if dur < 0.999 || dur > 1.001 {
		t.Fatalf("compute-bound kernel took %v, want ~1s", dur)
	}
}

func TestKernelTrafficScale(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(DDROnly))
	h := env.mg.NewHandle("b", 1*gb)
	run := func(scale float64) sim.Time {
		var dur sim.Time
		env.e.Spawn("k", func(p *sim.Proc) {
			dur = env.mg.RunKernel(p,
				[]charm.DataDep{{Handle: h, Mode: charm.ReadOnly}},
				KernelSpec{TrafficScale: scale})
		})
		env.e.RunAll()
		return dur
	}
	d1, d3 := run(1), run(3)
	if d3 < 2.9*d1 || d3 > 3.1*d1 {
		t.Fatalf("traffic scale 3 gave %v vs %v (want 3x)", d3, d1)
	}
}

func TestKernelReadWriteOverlap(t *testing.T) {
	// A ReadWrite dep streams reads and writes concurrently, so the
	// kernel takes about max(read, write) time, not the sum.
	env := newEnv(t, 1, DefaultOptions(DDROnly))
	h := env.mg.NewHandle("b", 1*gb)
	var dur sim.Time
	env.e.Spawn("k", func(p *sim.Proc) {
		dur = env.mg.RunKernel(p,
			[]charm.DataDep{{Handle: h, Mode: charm.ReadWrite}},
			KernelSpec{TrafficScale: 1})
	})
	env.e.RunAll()
	// 1 GB read and 1 GB write at a 40 GB/s core cap each: ~1/40 s
	// overlapped; serial would be ~1/20 s.
	want := 1.0 / 40.0
	if dur < want*0.99 || dur > want*1.3 {
		t.Fatalf("RW kernel took %v, want ~%v (overlapped)", dur, want)
	}
}

// TestKernelWriteChainEvents pins the engine's event counts and the
// durations of three read-write kernels run side by side: a normal one;
// a tiny one whose every segment falls below memsim's completion
// epsilon, so each flow is done at start; and a mixed one whose first
// and last segments are below it. The expected values are those of the
// earlier implementation, which streamed the writes on a spawned
// process; the process-free write chain must keep every event. memsim
// schedules one completion event per instant, at the instant's end,
// where it once scheduled one per flow start and completion and
// cancelled all but the last: that removed three scheduled-then-
// cancelled events (26 → 23 scheduled, 4 → 1 cancelled, 21 → 19 served
// from the free list), and the same 22 fire.
func TestKernelWriteChainEvents(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(DDROnly))
	rw := env.mg.NewHandle("rw", 256<<20)
	ro := env.mg.NewHandle("ro", 128<<20)
	wo := env.mg.NewHandle("wo", 64<<20)
	t1 := env.mg.NewHandle("t1", 1<<20)
	t2 := env.mg.NewHandle("t2", 1<<20)
	s1 := env.mg.NewHandle("s1", 1)
	big := env.mg.NewHandle("big", 1*gb)
	s2 := env.mg.NewHandle("s2", 1)
	var normal, tiny, mixed sim.Time
	env.e.Spawn("normal", func(p *sim.Proc) {
		normal = env.mg.RunKernel(p, []charm.DataDep{
			{Handle: rw, Mode: charm.ReadWrite},
			{Handle: ro, Mode: charm.ReadOnly},
			{Handle: wo, Mode: charm.WriteOnly},
		}, KernelSpec{TrafficScale: 1})
	})
	env.e.Spawn("tiny", func(p *sim.Proc) {
		p.Sleep(1e-3)
		tiny = env.mg.RunKernel(p, []charm.DataDep{
			{Handle: t1, Mode: charm.ReadWrite},
			{Handle: t2, Mode: charm.ReadWrite},
		}, KernelSpec{TrafficScale: 1e-10})
	})
	env.e.Spawn("mixed", func(p *sim.Proc) {
		p.Sleep(2e-3)
		mixed = env.mg.RunKernel(p, []charm.DataDep{
			{Handle: s1, Mode: charm.ReadWrite},
			{Handle: big, Mode: charm.ReadWrite},
			{Handle: s2, Mode: charm.ReadWrite},
		}, KernelSpec{TrafficScale: 1e-4})
	})
	env.e.RunAll()
	want := sim.EventStats{Scheduled: 23, Fired: 22, Cancelled: 1, Reused: 19}
	if st := env.e.EventStats(); st != want {
		t.Errorf("EventStats = %+v, want %+v", st, want)
	}
	for _, c := range []struct {
		name      string
		got, want sim.Time
	}{
		{"normal", normal, 0.0093749999999999997},
		{"tiny", tiny, 0},
		{"mixed", mixed, 2.4999999999998981e-06},
	} {
		if c.got != c.want {
			t.Errorf("%s kernel took %.17g, want %.17g", c.name, c.got, c.want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(MultiIO))
	app := buildApp(env, 4, 512*1024*1024, 2, nil)
	app.run(t)
	st := env.mg.Stats
	if st.BytesFetched != st.Fetches*512*1024*1024 {
		t.Fatalf("fetch byte accounting inconsistent: %v fetches, %v bytes", st.Fetches, st.BytesFetched)
	}
	if st.FetchTime <= 0 || st.EvictTime <= 0 {
		t.Fatal("movement time not accounted")
	}
	if st.TasksStaged == 0 {
		t.Fatal("no tasks staged under MultiIO")
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (sim.Time, int64) {
		e := sim.NewEngine(7)
		m := tinySpec().MustBuild(e)
		rt := charm.NewRuntime(m, 4, charm.DefaultParams())
		mg := NewManager(rt, DefaultOptions(MultiIO))
		env := &env{e: e, m: m, rt: rt, mg: mg}
		app := buildApp(env, 12, 512*1024*1024, 3, nil)
		app.env.rt.Main(func(p *sim.Proc) { app.arr.Broadcast(-1, app.kern, nil) })
		e.RunAll()
		defer e.Close()
		if !app.done {
			t.Fatal("deadlock")
		}
		return app.iterEnd[len(app.iterEnd)-1], mg.Stats.Fetches
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

func TestTracerSeesFetchAndIdle(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(NoIO))
	app := buildApp(env, 6, 512*1024*1024, 2, nil)
	app.run(t)
	s := env.tr.Summarize()
	if s.Totals[projections.Fetch] <= 0 {
		t.Fatal("NoIO sync fetches must appear on worker lanes")
	}
	if s.Totals[projections.Compute] <= 0 {
		t.Fatal("no compute recorded")
	}
}

func TestMultiIOFetchOnIOThreadLane(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(MultiIO))
	app := buildApp(env, 6, 512*1024*1024, 2, nil)
	app.run(t)
	s := env.tr.Summarize()
	// Lanes 0..1 are workers, lanes 2..3 the IO threads; fetch time
	// must land on IO lanes, not worker lanes.
	var workerFetch, ioFetch sim.Time
	for pe, cats := range s.PerPE {
		if pe < 2 {
			workerFetch += cats[projections.Fetch]
		} else {
			ioFetch += cats[projections.Fetch]
		}
	}
	if ioFetch <= 0 {
		t.Fatal("no fetch time on IO lanes")
	}
	if workerFetch > 0 {
		t.Fatalf("async strategy charged %v fetch to workers", workerFetch)
	}
}

// TestMultiIOCrossPELiveness: asymmetric load. PEs 1-3 reserve the
// whole 3 GB budget with one 1 GB task each before PE 0's only task
// arrives, so PE 0's IO thread fails to stage it and sleeps with
// nothing of its own in flight: no completion or admission on PE 0
// will wake it again. Only the other PEs' IO threads, once they evict,
// can — through the cross-PE liveness kick. Without it the run
// deadlocks with PE 0's task parked in its wait queue.
func TestMultiIOCrossPELiveness(t *testing.T) {
	env := newEnv(t, 4, DefaultOptions(MultiIO))
	app := buildApp(env, 4, 1*gb, 1, nil)
	env.rt.Main(func(p *sim.Proc) {
		for i := 1; i < 4; i++ {
			app.arr.Send(-1, i, app.kern, nil)
		}
		p.Sleep(1e-3)
		app.arr.Send(-1, 0, app.kern, nil)
	})
	env.e.RunAll()
	if !app.done {
		t.Fatalf("PE 0's task never ran: blocked procs %v", env.e.BlockedProcNames())
	}
	assertQuiescent(t, env)
	if env.mg.Stats.StageRetries == 0 {
		t.Fatal("PE 0's IO thread never found HBM full; the test no longer stalls it")
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(SingleIO))
	h := env.mg.NewHandle("b", 1024)
	defer func() {
		if recover() == nil {
			t.Fatal("unpin underflow did not panic")
		}
	}()
	h.unpin()
}

func TestForeignHandlePanics(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(SingleIO))
	env2 := newEnv(t, 1, DefaultOptions(SingleIO))
	h2 := env2.mg.NewHandle("foreign", 1024)
	arr := env.rt.NewArray("a", 1, func(i int) charm.Chare { return nil }, nil)
	kern := arr.Register(charm.Entry{
		Name:     "kern",
		Prefetch: true,
		Deps: func(el *charm.Element, msg *charm.Message) []charm.DataDep {
			return []charm.DataDep{{Handle: h2, Mode: charm.ReadOnly}}
		},
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {},
	})
	env.rt.Main(func(p *sim.Proc) { arr.Send(-1, 0, kern, nil) })
	defer func() {
		if recover() == nil {
			t.Fatal("foreign handle did not panic")
		}
	}()
	env.e.RunAll()
}

func TestNoIOCapacityStallUsesWaitQueues(t *testing.T) {
	// 3 PEs, blocks of 1.2 GB against a 3 GB budget, 6 chares: two
	// running tasks hold 2.4 GB, so the third PE's first delivery
	// cannot stage inline and parks in its wait queue, to be staged
	// later by a completing worker on another PE (the cross-PE
	// helping path).
	env := newEnv(t, 3, DefaultOptions(NoIO))
	app := buildApp(env, 6, 6*gb/5, 2, nil)
	app.run(t)
	assertQuiescent(t, env)
	if env.mg.Stats.TasksStaged == 0 {
		t.Fatal("no tasks went through the NoIO wait queues despite capacity pressure")
	}
	if env.mg.Stats.TasksInline == 0 {
		t.Fatal("no tasks staged inline")
	}
}

func TestNoIOFIFOUnderPressure(t *testing.T) {
	// With a queue already formed, later arrivals must queue behind
	// it rather than overtake (the admit fast path is disabled while
	// the wait queue is non-empty).
	env := newEnv(t, 1, DefaultOptions(NoIO))
	app := buildApp(env, 5, 1*gb, 1, nil)
	app.run(t)
	assertQuiescent(t, env)
	if env.rt.Stats.TasksExecuted != 5 {
		t.Fatalf("executed %d", env.rt.Stats.TasksExecuted)
	}
}

func TestAccessors(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(SingleIO))
	h := env.mg.NewHandle("acc", 4096)
	if h.BlockName() != "acc" || h.Size() != 4096 {
		t.Fatal("handle accessors")
	}
	if h.Buffer() == nil || h.Buffer().Size() != 4096 {
		t.Fatal("handle buffer")
	}
	if env.mg.Runtime() != env.rt {
		t.Fatal("manager runtime")
	}
	if env.mg.Mode() != SingleIO {
		t.Fatal("manager mode")
	}
	if env.mg.ResidentBytes() != 0 {
		t.Fatal("nothing should be resident yet")
	}
	if env.mg.Options().Mode != SingleIO {
		t.Fatal("options")
	}
}

func TestResidentBytesTracksHBM(t *testing.T) {
	env := newEnv(t, 1, DefaultOptions(Baseline))
	env.mg.NewHandle("a", 1*gb) // baseline -> HBM
	if env.mg.ResidentBytes() != 1*gb {
		t.Fatalf("resident %d, want 1GB", env.mg.ResidentBytes())
	}
}
