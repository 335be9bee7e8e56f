package kernels

import (
	"testing"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

const gb = int64(1) << 30
const mb = int64(1) << 20

// smallKNL is a 1/8 slice of KNL: 8 cores, 2 GB MCDRAM, 16 GB DDR, and
// node bandwidths divided by 8 so per-core bandwidth pressure matches
// the 64-core machine (DDR ~1.3 GB/s per core, HBM ~6.7 GB/s).
func smallKNL() topology.MachineSpec {
	s := topology.KNL7250()
	s.Cores = 8
	s.TilesL2 = 4
	s.HBMCap = 2 * gb
	s.DDRCap = 16 * gb
	s.HBMReadBW /= 8
	s.HBMWriteBW /= 8
	s.HBMTotalBW /= 8
	s.DDRReadBW /= 8
	s.DDRWriteBW /= 8
	s.DDRTotalBW /= 8
	return s
}

func smallOpts(mode core.Mode) core.Options {
	o := core.DefaultOptions(mode)
	o.HBMReserve = 256 * mb
	return o
}

func stencilEnv(t *testing.T, mode core.Mode, cfg StencilConfig) (*Env, *StencilApp) {
	t.Helper()
	env := NewEnv(EnvConfig{Spec: smallKNL(), NumPEs: cfg.NumPEs, Opts: smallOpts(mode)})
	t.Cleanup(env.Close)
	app, err := NewStencil(env.MG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, app
}

// smallStencil: 4 GB total, 1 GB reduced over 8 PEs -> 128 MB chares,
// 32 chares.
func smallStencil() StencilConfig {
	return StencilConfig{
		TotalBytes:    4 * gb,
		ReducedBytes:  1 * gb,
		Iterations:    3,
		Sweeps:        10,
		NumPEs:        8,
		FlopsPerByte:  1.0,
		GhostFraction: 0.05,
	}
}

func TestStencilConfigDerived(t *testing.T) {
	cfg := smallStencil()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.ChareBytes() != 128*mb {
		t.Fatalf("chare bytes %d", cfg.ChareBytes())
	}
	if cfg.NumChares() != 32 {
		t.Fatalf("num chares %d", cfg.NumChares())
	}
}

func TestStencilConfigValidation(t *testing.T) {
	bad := []func(*StencilConfig){
		func(c *StencilConfig) { c.TotalBytes = 0 },
		func(c *StencilConfig) { c.ReducedBytes = c.TotalBytes * 2 },
		func(c *StencilConfig) { c.Iterations = 0 },
		func(c *StencilConfig) { c.Sweeps = 0 },
		func(c *StencilConfig) { c.NumPEs = 0 },
		func(c *StencilConfig) { c.ReducedBytes = 1<<30 + 3 },
	}
	for i, mut := range bad {
		c := smallStencil()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultStencilMatchesPaper(t *testing.T) {
	c := DefaultStencilConfig()
	if c.TotalBytes != 32*gb || c.Sweeps != 20 || c.NumPEs != 64 {
		t.Fatal("default stencil config drifted from the paper's setup")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStencilRunsToCompletionAllModes(t *testing.T) {
	for _, mode := range []core.Mode{core.DDROnly, core.Baseline, core.SingleIO, core.NoIO, core.MultiIO} {
		t.Run(mode.String(), func(t *testing.T) {
			_, app := stencilEnv(t, mode, smallStencil())
			total, err := app.Run()
			if err != nil {
				t.Fatal(err)
			}
			if total <= 0 || len(app.IterEnd) != 3 {
				t.Fatalf("total=%v iters=%d", total, len(app.IterEnd))
			}
			if app.AvgIterTime() <= 0 {
				t.Fatal("no average iteration time")
			}
		})
	}
}

func TestStencilMovementBeatsNaive(t *testing.T) {
	// The headline claim (Fig. 8): with the working set 2x over HBM,
	// MultiIO beats the Naive baseline.
	cfg := smallStencil() // 4 GB total vs 1.75 GB HBM budget
	run := func(mode core.Mode) sim.Time {
		_, app := stencilEnv(t, mode, cfg)
		total, err := app.Run()
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	naive := run(core.Baseline)
	multi := run(core.MultiIO)
	if multi >= naive {
		t.Fatalf("MultiIO (%v) not faster than Naive (%v)", multi, naive)
	}
}

func TestStencilFitsInHBMFastPath(t *testing.T) {
	// Working set within HBM: baseline serves everything from HBM and
	// strategies should not be dramatically slower.
	cfg := smallStencil()
	cfg.TotalBytes = 1 * gb
	cfg.ReducedBytes = 1 * gb
	naiveEnv, app := stencilEnv(t, core.Baseline, cfg)
	naive, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if used := naiveEnv.Mach.DDR().Used(); used != 0 {
		t.Fatalf("fitting baseline spilled %d bytes to DDR", used)
	}
	_, app2 := stencilEnv(t, core.DDROnly, cfg)
	ddr, err := app2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(ddr) / float64(naive); ratio < 2.0 {
		t.Fatalf("Fig 2 shape: DDR/HBM iteration ratio %.2f, want >= 2 (paper ~3x)", ratio)
	}
}

func TestStencilGhostProtocolExactlyOneKernelPerIteration(t *testing.T) {
	env, app := stencilEnv(t, core.Baseline, smallStencil())
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	// Each chare runs compute once per iteration; plus ghost messages.
	wantKernels := int64(app.Cfg.NumChares() * app.Cfg.Iterations)
	var kernels int64
	for i := 0; i < app.arr.Len(); i++ {
		_ = i
	}
	kernels = env.RT.Stats.TasksExecuted - int64(app.ghostMessages())
	if kernels != wantKernels {
		t.Fatalf("kernel executions %d, want %d", kernels, wantKernels)
	}
}

// ghostMessages counts the ghost deliveries of a finished run.
func (app *StencilApp) ghostMessages() int {
	total := 0
	for i := 0; i < app.arr.Len(); i++ {
		total += app.arr.Elem(i).Obj.(*stencilChare).ghostsWant
	}
	return total * app.Cfg.Iterations
}

func TestCubeSide(t *testing.T) {
	cases := map[int]int{1: 1, 8: 2, 9: 3, 27: 3, 28: 4, 64: 4, 1024: 11}
	for n, want := range cases {
		if got := cubeSide(n); got != want {
			t.Errorf("cubeSide(%d) = %d, want %d", n, got, want)
		}
	}
}

// --- MatMul ---

// smallMatMul: 3 GB total (1 GB per matrix), 8x8 staged grid, 8 PEs.
// Blocks are 16 MB; one stage task touches 3 blocks (48 MB) and a wave
// of 8 concurrent tasks a few hundred MB — well inside the 1.75 GB
// budget, the paper's precondition that the reduced working set fits.
func smallMatMul() MatMulConfig {
	return MatMulConfig{
		TotalBytes:          3 * gb,
		Grid:                8,
		NumPEs:              8,
		TrafficScale:        3,
		ArithmeticIntensity: 8,
	}
}

func matmulEnv(t *testing.T, mode core.Mode, cfg MatMulConfig) (*Env, *MatMulApp) {
	t.Helper()
	env := NewEnv(EnvConfig{Spec: smallKNL(), NumPEs: cfg.NumPEs, Opts: smallOpts(mode)})
	t.Cleanup(env.Close)
	app, err := NewMatMul(env.MG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, app
}

func TestMatMulConfigDerived(t *testing.T) {
	cfg := smallMatMul()
	if cfg.MatrixBytes() != 1*gb {
		t.Fatalf("matrix bytes %d", cfg.MatrixBytes())
	}
	if cfg.BlockBytes() != 16*mb {
		t.Fatalf("block bytes %d", cfg.BlockBytes())
	}
	if cfg.TaskDepBytes() != 3*16*mb {
		t.Fatalf("task dep bytes %d", cfg.TaskDepBytes())
	}
	if cfg.Tasks() != 512 {
		t.Fatalf("tasks %d, want 512 (G^3)", cfg.Tasks())
	}
	// Reduced WS: 1 row + 8 cols + 8 C blocks = 17 blocks.
	if cfg.ReducedBytes() != 17*16*mb {
		t.Fatalf("reduced bytes %d", cfg.ReducedBytes())
	}
	if n := cfg.N(); n < 11585 || n > 11586 {
		t.Fatalf("N = %v, want ~11585 (sqrt(1GB/8))", n)
	}
}

func TestMatMulValidation(t *testing.T) {
	for i, c := range []MatMulConfig{
		{TotalBytes: 0, Grid: 4, NumPEs: 4, TrafficScale: 1, ArithmeticIntensity: 1},
		{TotalBytes: gb, Grid: 0, NumPEs: 4, TrafficScale: 1, ArithmeticIntensity: 1},
		{TotalBytes: gb, Grid: 4, NumPEs: 0, TrafficScale: 1, ArithmeticIntensity: 1},
		{TotalBytes: gb, Grid: 4, NumPEs: 4, TrafficScale: 0, ArithmeticIntensity: 1},
		{TotalBytes: gb, Grid: 4, NumPEs: 4, TrafficScale: 1, ArithmeticIntensity: 0},
		{TotalBytes: 1, Grid: 8, NumPEs: 4, TrafficScale: 1, ArithmeticIntensity: 1}, // zero-byte blocks
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMatMulRunsToCompletionAllModes(t *testing.T) {
	for _, mode := range []core.Mode{core.DDROnly, core.Baseline, core.SingleIO, core.NoIO, core.MultiIO} {
		t.Run(mode.String(), func(t *testing.T) {
			env, app := matmulEnv(t, mode, smallMatMul())
			total, err := app.Run()
			if err != nil {
				t.Fatal(err)
			}
			if total <= 0 {
				t.Fatal("zero time")
			}
			if env.RT.Stats.TasksExecuted != int64(smallMatMul().Tasks()) {
				t.Fatalf("executed %d tasks, want %d", env.RT.Stats.TasksExecuted, smallMatMul().Tasks())
			}
		})
	}
}

func TestMatMulReadOnlyReuse(t *testing.T) {
	// With FIFO scheduling and shared read-only blocks, blocks are
	// fetched far fewer times than they are used: 512 tasks x 3 deps =
	// 1536 uses over 192 blocks.
	_, app := matmulEnv(t, core.SingleIO, smallMatMul())
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	st := app.Manager().Stats
	if st.Fetches >= 1200 {
		t.Fatalf("fetches = %d for 1536 dependence uses — no read-only reuse", st.Fetches)
	}
	if st.Fetches == 0 {
		t.Fatal("no fetches at all")
	}
}

func TestMatMulMovementBeatsNaiveWhenOversubscribed(t *testing.T) {
	// 6 GB total vs 1.75 GB budget: heavy DDR overflow for Naive.
	cfg := smallMatMul()
	cfg.TotalBytes = 6 * gb
	run := func(mode core.Mode) sim.Time {
		_, app := matmulEnv(t, mode, cfg)
		total, err := app.Run()
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	naive := run(core.Baseline)
	single := run(core.SingleIO)
	if single >= naive {
		t.Fatalf("SingleIO (%v) not faster than Naive (%v)", single, naive)
	}
}

func TestMatMulSingleIOCompetitiveWithMultiIO(t *testing.T) {
	// Fig. 9's observation: with high read-only reuse, Single IO
	// performs about as well as Multiple IO threads (within ~25%).
	cfg := smallMatMul()
	cfg.TotalBytes = 6 * gb
	run := func(mode core.Mode) sim.Time {
		_, app := matmulEnv(t, mode, cfg)
		total, err := app.Run()
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	single := run(core.SingleIO)
	multi := run(core.MultiIO)
	if ratio := float64(single) / float64(multi); ratio > 1.4 {
		t.Fatalf("SingleIO/MultiIO = %.2f; paper says they should be comparable for matmul", ratio)
	}
}

func TestMatMulDDROnlySlowest(t *testing.T) {
	cfg := smallMatMul()
	run := func(mode core.Mode) sim.Time {
		_, app := matmulEnv(t, mode, cfg)
		total, err := app.Run()
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	ddr := run(core.DDROnly)
	multi := run(core.MultiIO)
	if ddr <= multi {
		t.Fatalf("DDR4only (%v) should be slower than MultiIO (%v)", ddr, multi)
	}
}
