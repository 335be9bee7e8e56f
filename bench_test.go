// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus the extension experiments. Each benchmark
// regenerates its figure's data and reports the figure's headline
// quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers.
// Benchmarks run at the Small (1/8) scale per iteration to stay fast;
// run cmd/hmrepro for the full-scale tables.
package hetmem_test

import (
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
)

// BenchmarkFig1Stream regenerates Fig. 1 (STREAM bandwidth DDR4 vs
// MCDRAM) and reports the Triad bandwidth ratio.
func BenchmarkFig1Stream(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).Fig1()
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Ratio(3)
	}
	b.ReportMetric(ratio, "MCDRAM/DDR4-triad-ratio")
}

// BenchmarkFig2StencilFits regenerates Fig. 2 (Stencil3D on HBM vs
// DDR4, dataset fits) and reports the DDR/HBM kernel-time ratio
// (paper: ~3x).
func BenchmarkFig2StencilFits(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).Fig2()
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.KernelRatio()
	}
	b.ReportMetric(ratio, "DDR/HBM-kernel-ratio")
}

// BenchmarkFig5Projections regenerates the Fig. 5 trace comparison and
// reports the Single-IO vs Multi-IO overhead-share gap.
func BenchmarkFig5Projections(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).Fig56()
		if err != nil {
			b.Fatal(err)
		}
		gap = r.Runs[core.SingleIO].OverheadShare - r.Runs[core.MultiIO].OverheadShare
	}
	b.ReportMetric(gap, "singleIO-minus-multiIO-overhead")
}

// BenchmarkFig6SyncFetch regenerates the Fig. 6 comparison and reports
// the synchronous strategy's per-task pre-processing time in ms
// (paper: "of order of 20 ms" at full scale).
func BenchmarkFig6SyncFetch(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).Fig56()
		if err != nil {
			b.Fatal(err)
		}
		ms = 1e3 * float64(r.Runs[core.NoIO].WorkerFetchPerTask)
	}
	b.ReportMetric(ms, "sync-fetch-ms/task")
}

// BenchmarkFig7Memcpy regenerates Fig. 7 (migration memcpy cost) and
// reports the HBM->DDR vs DDR->HBM cost ratio at the largest volume.
func BenchmarkFig7Memcpy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).Fig7()
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		ratio = float64(last.HBMToDDR) / float64(last.DDRToHBM)
	}
	b.ReportMetric(ratio, "HBMtoDDR/DDRtoHBM")
}

// BenchmarkFig8Stencil regenerates Fig. 8 (Stencil3D strategy
// speedups) and reports the Multiple-IO-threads speedup at the
// smallest reduced working set (paper: ~2x).
func BenchmarkFig8Stencil(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig8(exp.Small)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Rows[0].Speedups[core.MultiIO]
	}
	b.ReportMetric(speedup, "multiIO-speedup")
}

// BenchmarkFig9MatMul regenerates Fig. 9 (MatMul strategy speedups)
// and reports the Multiple-IO-threads speedup at the largest total
// working set.
func BenchmarkFig9MatMul(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig9(exp.Small)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Rows[len(r.Rows)-1].Speedups[core.MultiIO]
	}
	b.ReportMetric(speedup, "multiIO-speedup")
}

// BenchmarkXCacheMode regenerates extension X1 (flat-mode runtime
// prefetch vs hardware cache mode) and reports the flat-mode advantage
// at the largest working set.
func BenchmarkXCacheMode(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).CacheMode()
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		adv = float64(last.CacheIterTime) / float64(last.FlatIterTime)
	}
	b.ReportMetric(adv, "cachemode/flat-time-ratio")
}

// BenchmarkXQueueAblation regenerates extension X2 (shared vs per-PE
// wait queues) and reports the shared-queue slowdown factor.
func BenchmarkXQueueAblation(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).AblationQueues()
		if err != nil {
			b.Fatal(err)
		}
		factor = float64(r.SharedTime) / float64(r.PerPETime)
	}
	b.ReportMetric(factor, "shared/perPE-time-ratio")
}

// BenchmarkXIOThreads regenerates extension X3 (IO thread count sweep)
// and reports the speedup of the largest pool over one thread.
func BenchmarkXIOThreads(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).AblationIOThreads()
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Rows[len(r.Rows)-1].Speedup
	}
	b.ReportMetric(speedup, "maxthreads-speedup")
}

// BenchmarkXEviction regenerates extension X4 (eager vs lazy eviction)
// and reports lazy eviction's fetch reduction on the stencil.
func BenchmarkXEviction(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).AblationEviction()
		if err != nil {
			b.Fatal(err)
		}
		row := r.Rows[0]
		reduction = float64(row.EagerFet) / float64(row.LazyFet)
	}
	b.ReportMetric(reduction, "eager/lazy-fetches")
}

// BenchmarkXNVM regenerates extension X5 (NVM far memory) and reports
// how much larger the MultiIO benefit is on the latency+bandwidth
// restricted tier.
func BenchmarkXNVM(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).NVM()
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		gain = last.Speedups.NVM / last.Speedups.DDR
	}
	b.ReportMetric(gain, "NVM/DDR-speedup-gain")
}

// BenchmarkXPrefetchDepth regenerates extension X6 and reports the
// unlimited-depth advantage over depth 1.
func BenchmarkXPrefetchDepth(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).AblationPrefetchDepth()
		if err != nil {
			b.Fatal(err)
		}
		adv = float64(r.Rows[0].Time) / float64(r.Rows[len(r.Rows)-1].Time)
	}
	b.ReportMetric(adv, "depth1/unlimited-time-ratio")
}

// BenchmarkXLoadBalance regenerates extension X7 and reports the
// rebalancing speedup on the skewed stencil.
func BenchmarkXLoadBalance(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).LoadBalance()
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(r.UnbalancedTime) / float64(r.BalancedTime)
	}
	b.ReportMetric(speedup, "LB-speedup")
}

// BenchmarkManagerDispatch drives the Fig 8 overflow stencil through
// the full runtime/manager stack — task dispatch, policy view,
// admission, fetch and eviction — and reports simulated tasks
// dispatched per wall-clock second. This is the end-to-end hot path
// the engine overhaul targets (the sim-only microbenchmarks live in
// internal/sim). It also reports the engine's process resumes and
// Drive steps per task (sim.EventStats), the work the stepped
// protocols move off coroutine switches.
func BenchmarkManagerDispatch(b *testing.B) {
	var (
		tasks int64
		st    sim.EventStats
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, s, err := runManagerDispatch(false)
		if err != nil {
			b.Fatal(err)
		}
		tasks, st = n, s
	}
	b.StopTimer()
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/sec")
	b.ReportMetric(float64(st.Resumes)/float64(tasks), "resumes/task")
	b.ReportMetric(float64(st.Steps)/float64(tasks), "steps/task")
}

// runManagerDispatch runs BenchmarkManagerDispatch's workload once, the
// Small Fig 8 overflow stencil under Multi-IO, and returns the number
// of tasks executed and the engine's counts. With observed set, the
// event stream carries every view there is: the metrics collector, a
// Projections tracer and a trace recorder.
func runManagerDispatch(observed bool) (int64, sim.EventStats, error) {
	s := exp.Small
	opts := core.DefaultOptions(core.MultiIO)
	opts.HBMReserve = s.HBMReserve()
	opts.Metrics = observed
	sizes := s.StencilReducedSizes()
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:        s.Machine(),
		NumPEs:      s.NumPEs(),
		Opts:        opts,
		Params:      charm.DefaultParams(),
		Projections: observed,
	})
	defer env.Close()
	if observed {
		trace.NewRecorder(env.MG).Attach()
	}
	app, err := kernels.NewStencil(env.MG, s.StencilConfig(sizes[len(sizes)-1]))
	if err != nil {
		return 0, sim.EventStats{}, err
	}
	if _, err := app.Run(); err != nil {
		return 0, sim.EventStats{}, err
	}
	return env.RT.Stats.TasksExecuted, env.Eng.EventStats(), nil
}

// TestTaskPathAllocs guards the task path's allocations: one run of
// BenchmarkManagerDispatch's workload made 15,147 allocations before
// the task path shed its per-task closures, processes and slices, and
// 5,759 after. The bound sits about 10% above the latter. With every
// view on the event stream the run made 11,375 when each view had a
// hook of its own (a Projections span cost a closure); that is the
// observed bound.
func TestTaskPathAllocs(t *testing.T) {
	for _, c := range []struct {
		observed bool
		bound    int
	}{{false, 6_350}, {true, 11_375}} {
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, e := runManagerDispatch(c.observed); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > float64(c.bound) {
			t.Fatalf("the dispatch workload (observed %v) made %.0f allocations per run, want <= %d", c.observed, allocs, c.bound)
		}
		t.Logf("observed %v: %.0f allocations per run (bound %d)", c.observed, allocs, c.bound)
	}
}

// BenchmarkTuneSearch runs X15's offline search at the Small scale over
// the shift capture, recorded once outside the timer, and reports
// replays per wall-clock second. It is the tune path's working
// microbenchmark, as BenchmarkManagerDispatch is dispatch's: the
// search replays the capture under each candidate's knobs through the
// whole runtime stack, eviction victim selection included.
func BenchmarkTuneSearch(b *testing.B) {
	c, err := exp.ShiftCapture(exp.Small)
	if err != nil {
		b.Fatal(err)
	}
	replays := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := exp.SearchShift(c)
		if err != nil {
			b.Fatal(err)
		}
		replays += rc.Replays
	}
	b.StopTimer()
	b.ReportMetric(float64(replays)/b.Elapsed().Seconds(), "replays/sec")
}

// TestTuneSearchAllocs guards the tune path's allocations: one Small
// X15 search over a shift capture recorded outside the count made
// 794,363 allocations while each verdict replay attached a trace
// recorder and each eviction pass ranked a fresh candidate slice, and
// 370,699 after. The bound sits about 10% above the latter.
func TestTuneSearchAllocs(t *testing.T) {
	c, err := exp.ShiftCapture(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 408_000
	allocs := testing.AllocsPerRun(2, func() {
		if _, e := exp.SearchShift(c); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > bound {
		t.Fatalf("a Small X15 search made %.0f allocations, want <= %d", allocs, bound)
	}
	t.Logf("%.0f allocations per search (bound %d)", allocs, bound)
}

// BenchmarkXCluster regenerates extension X8 (multi-node weak scaling)
// and reports the MultiIO-vs-Naive speedup at the largest node count.
func BenchmarkXCluster(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := (&exp.Sweep{Scale: exp.Small}).Cluster()
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Rows[len(r.Rows)-1].Speedup
	}
	b.ReportMetric(speedup, "multiIO-speedup-at-max-nodes")
}
