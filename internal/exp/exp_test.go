package exp

import (
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/core"
)

func TestScaleMachines(t *testing.T) {
	full := Full.Machine()
	small := Small.Machine()
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if Full.NumPEs() != 64 || Small.NumPEs() != 8 {
		t.Fatal("PE counts")
	}
	// The small machine preserves the bandwidth ratios.
	fr := full.HBMReadBW / full.DDRReadBW
	sr := small.HBMReadBW / small.DDRReadBW
	if fr != sr {
		t.Fatalf("bandwidth ratio drifted: %v vs %v", fr, sr)
	}
	if Full.String() != "full" || Small.String() != "small" {
		t.Fatal("scale names")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxx", "1"}, {"y", "2"}},
		Notes:  []string{"a note"},
	}
	out := tab.String()
	for _, want := range []string{"## demo", "long-header", "xxxxxx", "note: a note", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	r, err := RunFig1(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DDR) != 4 || len(r.HBM) != 4 {
		t.Fatalf("kernel counts %d/%d", len(r.DDR), len(r.HBM))
	}
	for i := range r.DDR {
		if ratio := r.Ratio(i); ratio < 4 {
			t.Errorf("%s MCDRAM/DDR ratio %.2f < 4", r.DDR[i].Kernel, ratio)
		}
	}
	if !strings.Contains(r.Table().String(), "STREAM") {
		t.Error("table title")
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := RunFig2(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.IterRatio() < 2 {
		t.Errorf("DDR/HBM iteration ratio %.2f, want >= 2 (paper ~3x)", r.IterRatio())
	}
	if r.KernelRatio() < 2 {
		t.Errorf("DDR/HBM kernel ratio %.2f, want >= 2", r.KernelRatio())
	}
	if !strings.Contains(r.Table().String(), "Stencil3D") {
		t.Error("table title")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := RunFig7(Small)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Asymmetric() {
		t.Error("HBM->DDR should cost at least as much as DDR->HBM")
	}
	// Cost grows with volume.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].DDRToHBM <= r.Points[i-1].DDRToHBM {
			t.Errorf("DDR->HBM cost not increasing at point %d", i)
		}
	}
	if len(r.Table().Rows) != len(r.Points) {
		t.Error("table rows")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := RunFig8(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		multi := row.Speedups[core.MultiIO]
		single := row.Speedups[core.SingleIO]
		no := row.Speedups[core.NoIO]
		if multi <= 1.2 {
			t.Errorf("reduced %s: MultiIO speedup %.2f, want > 1.2", gbs(row.ReducedBytes), multi)
		}
		if single >= no || single >= multi {
			t.Errorf("reduced %s: SingleIO (%.2f) should be the slowest strategy (no=%.2f multi=%.2f)",
				gbs(row.ReducedBytes), single, no, multi)
		}
	}
	// SingleIO's absolute slowdown (< 1) only reproduces at the full
	// 64-PE scale where one IO thread serves 8x more workers; the
	// small slice preserves the ordering but not that signature (see
	// TestFig8FullScale).
}

func TestFig8FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure run")
	}
	r, err := RunFig8(Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// The paper's headline signatures at 64 PEs: SingleIO is a
		// slowdown, MultiIO gives ~2x or better.
		if s := row.Speedups[core.SingleIO]; s >= 1.0 {
			t.Errorf("reduced %s: SingleIO speedup %.2f, want < 1", gbs(row.ReducedBytes), s)
		}
		if m := row.Speedups[core.MultiIO]; m < 2.0 {
			t.Errorf("reduced %s: MultiIO speedup %.2f, want >= 2", gbs(row.ReducedBytes), m)
		}
	}
}

func TestFig9FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure run")
	}
	r, err := RunFig9(Full)
	if err != nil {
		t.Fatal(err)
	}
	last := r.Rows[len(r.Rows)-1]
	if m := last.Speedups[core.MultiIO]; m < 1.5 {
		t.Errorf("54GB MultiIO speedup %.2f, want >= 1.5", m)
	}
	// Fig 9's contrast with Fig 8: thanks to read-only reuse,
	// SingleIO is no longer a dramatic slowdown and sits within ~2x
	// of MultiIO at the largest size.
	if ratio := last.Speedups[core.MultiIO] / last.Speedups[core.SingleIO]; ratio > 2 {
		t.Errorf("54GB MultiIO/SingleIO gap %.2f, want <= 2", ratio)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := RunFig9(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if ddr := row.Speedups[core.DDROnly]; ddr >= 1 {
			t.Errorf("total %s: DDR4only speedup %.2f, want < 1", gbs(row.TotalBytes), ddr)
		}
	}
	// Speedups grow with the total working set (naive degrades).
	first := r.Rows[0].Speedups[core.MultiIO]
	last := r.Rows[len(r.Rows)-1].Speedups[core.MultiIO]
	if last <= first {
		t.Errorf("MultiIO speedup should grow with total WS: %.2f -> %.2f", first, last)
	}
	if last <= 1.2 {
		t.Errorf("MultiIO at largest WS only %.2f, want > 1.2", last)
	}
}

func TestFig56Shape(t *testing.T) {
	r, err := RunFig56(Small)
	if err != nil {
		t.Fatal(err)
	}
	single := r.Runs[core.SingleIO]
	multi := r.Runs[core.MultiIO]
	noio := r.Runs[core.NoIO]
	// Fig 5: single IO has much more overhead (red) than multi IO.
	if single.OverheadShare <= multi.OverheadShare {
		t.Errorf("SingleIO overhead %.3f should exceed MultiIO %.3f",
			single.OverheadShare, multi.OverheadShare)
	}
	if single.IdleShare <= multi.IdleShare {
		t.Errorf("SingleIO idle %.3f should exceed MultiIO %.3f", single.IdleShare, multi.IdleShare)
	}
	// Fig 6: synchronous strategy shows per-task pre-processing time
	// on worker lanes; asynchronous strategy masks it.
	if noio.WorkerFetchPerTask <= 10*multi.WorkerFetchPerTask {
		t.Errorf("NoIO per-task sync fetch %.2gms should dwarf MultiIO's %.2gms",
			1e3*noio.WorkerFetchPerTask, 1e3*multi.WorkerFetchPerTask)
	}
	if noio.WorkerFetchPerTask <= 0 {
		t.Error("NoIO shows no sync fetch time")
	}
	if !strings.Contains(r.Table().String(), "Projections") {
		t.Error("table title")
	}
	if r.Runs[core.SingleIO].Timeline == "" {
		t.Error("missing timeline")
	}
}

func TestCacheModeShape(t *testing.T) {
	r, err := RunCacheMode(Small)
	if err != nil {
		t.Fatal(err)
	}
	// Cache mode degrades monotonically as the working set grows.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].HitRate >= r.Rows[i-1].HitRate {
			t.Errorf("hit rate not decreasing at row %d", i)
		}
	}
	// When the working set is far over capacity, the runtime-managed
	// flat mode beats hardware caching.
	lastRow := r.Rows[len(r.Rows)-1]
	if lastRow.FlatIterTime >= lastRow.CacheIterTime {
		t.Errorf("flat+MultiIO (%.3f) should beat cache mode (%.3f) at %s",
			lastRow.FlatIterTime, lastRow.CacheIterTime, gbs(lastRow.TotalBytes))
	}
}

func TestAblationQueues(t *testing.T) {
	r, err := RunAblationQueues(Small)
	if err != nil {
		t.Fatal(err)
	}
	// The shared queue must not beat per-PE queues, and it shows more
	// load imbalance.
	if r.SharedTime < r.PerPETime*0.99 {
		t.Errorf("shared queue (%.2f) unexpectedly beats per-PE queues (%.2f)",
			r.SharedTime, r.PerPETime)
	}
	if !strings.Contains(r.Table().String(), "wait-queue") {
		t.Error("table title")
	}
}

func TestAblationIOThreads(t *testing.T) {
	r, err := RunAblationIOThreads(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// More IO threads should help the bandwidth-starved single-thread
	// configuration.
	first := r.Rows[0].Time
	last := r.Rows[len(r.Rows)-1].Time
	if last >= first {
		t.Errorf("IO thread scaling: 1 thread %.2fs, %d threads %.2fs — no improvement",
			first, r.Rows[len(r.Rows)-1].Threads, last)
	}
}

func TestAblationEviction(t *testing.T) {
	r, err := RunAblationEviction(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.LazyFet > row.EagerFet {
			t.Errorf("%s: lazy eviction fetched more (%d) than eager (%d)",
				row.App, row.LazyFet, row.EagerFet)
		}
	}
}

func TestNVMExtension(t *testing.T) {
	r, err := RunNVM(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows[1:] { // skip Naive (speedup 1 by definition)
		if row.Speedups.NVM <= row.Speedups.DDR {
			t.Errorf("%v: NVM-far speedup %.2f should exceed DDR-far %.2f (paper: 'would benefit even more')",
				row.Mode, row.Speedups.NVM, row.Speedups.DDR)
		}
		if row.Speedups.DDR <= 1 {
			t.Errorf("%v: DDR speedup %.2f, want > 1", row.Mode, row.Speedups.DDR)
		}
	}
	if !strings.Contains(r.Table().String(), "NVM") {
		t.Error("table title")
	}
}

func TestAblationPrefetchDepth(t *testing.T) {
	r, err := RunAblationPrefetchDepth(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// Depth 1 (staging serialised behind each task) must be the
	// slowest; unlimited the fastest or tied.
	depth1 := r.Rows[0].Time
	unlimited := r.Rows[len(r.Rows)-1].Time
	if unlimited >= depth1 {
		t.Errorf("unlimited depth (%.2f) should beat depth 1 (%.2f)", unlimited, depth1)
	}
}

func TestLoadBalanceExtension(t *testing.T) {
	r, err := RunLoadBalance(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrations == 0 {
		t.Fatal("load balancer moved nothing despite skewed load")
	}
	if r.BalancedTime >= r.UnbalancedTime {
		t.Errorf("balanced run (%.2f) not faster than unbalanced (%.2f)",
			r.BalancedTime, r.UnbalancedTime)
	}
	// After the rebalance, iterations get faster; without it they
	// stay skewed.
	lastB := r.BalancedIters[len(r.BalancedIters)-1]
	lastU := r.UnbalancedIters[len(r.UnbalancedIters)-1]
	if lastB >= lastU {
		t.Errorf("post-LB iteration (%.2f) not faster than unbalanced (%.2f)", lastB, lastU)
	}
}

func TestClusterExtension(t *testing.T) {
	r, err := RunCluster(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	if err := r.Pass(); err != nil {
		t.Error(err)
	}
	if !strings.Contains(r.Table().String(), "weak scaling") {
		t.Error("table title")
	}
}

// TestClusterFullRowPinned pins X8's Full-scale 4-node Multiple IO
// run to full precision, with its message and window counts. X8's
// table prints the makespan to 3 decimals and never prints the window
// count, so a change to the window protocol or the fabric that moves
// either would otherwise pass bench-check.
func TestClusterFullRowPinned(t *testing.T) {
	SetAudit(false)
	SetEvictPolicy(nil)
	c, res, err := Full.RunClusterStencil(4, Full.options(core.MultiIO), Full.clusterStencil())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res.Total != 7.7496519088675075 || c.Stats.Messages != 12 || c.Stats.Windows != 8041 {
		t.Fatalf("total %v s, %d messages, %d windows; want 7.7496519088675075 s, 12 messages, 8041 windows",
			float64(res.Total), c.Stats.Messages, c.Stats.Windows)
	}
}

// TestClusterGate: X8's gate rejects a result that breaks any one of
// its clauses.
func TestClusterGate(t *testing.T) {
	healthy := func() *ClusterResult {
		return &ClusterResult{Rows: []ClusterRow{
			{Nodes: 1, Speedup: 2.7, WeakSlowdn: 1, HaloBytes: 0},
			{Nodes: 2, Speedup: 2.7, WeakSlowdn: 1, HaloBytes: 1},
			{Nodes: 4, Speedup: 2.7, WeakSlowdn: 1, HaloBytes: 3},
		}}
	}
	if err := healthy().Pass(); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	for _, tc := range []struct {
		clause string
		doctor func(r *ClusterResult)
	}{
		{"MultiIO no faster than Naive", func(r *ClusterResult) { r.Rows[2].Speedup = 1 }},
		{"weak-scaling overhead above 1.3", func(r *ClusterResult) { r.Rows[1].WeakSlowdn = 1.31 }},
		{"halo traffic on one node", func(r *ClusterResult) { r.Rows[0].HaloBytes = 1 }},
		{"halo traffic flat", func(r *ClusterResult) { r.Rows[2].HaloBytes = r.Rows[1].HaloBytes }},
		{"halo traffic falls", func(r *ClusterResult) { r.Rows[2].HaloBytes = 0.5 }},
	} {
		r := healthy()
		tc.doctor(r)
		if r.Pass() == nil {
			t.Errorf("%s: gate passed", tc.clause)
		}
	}
}
