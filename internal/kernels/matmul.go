package kernels

import (
	"fmt"
	"math"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// MatMulConfig sizes a blocked dense matrix multiplication C = A x B.
//
// The multiply is staged: matrices are split into Grid x Grid blocks,
// chare (i,j) owns C[i,j] and runs Grid entry-method tasks, one per
// stage k, each depending on exactly {A[i,k] readonly, B[k,j] readonly,
// C[i,j] readwrite}. This fine-grained decomposition is what keeps the
// paper's "reduced working set size constant at 6GB" while the total
// working set grows 24->54 GB: the blocks touched by one wave of
// concurrent tasks are a few rows of A, one stage-column of B and the
// running chares' C blocks, independent of total matrix size. A and B
// blocks are shared read-only across the chares of a row/column through
// the node-level block cache (the paper's nodegroup), which is why
// "when a data block is fetched into HBM, it is consequently reused
// before eviction".
type MatMulConfig struct {
	// TotalBytes is the combined footprint of A, B and C (paper:
	// 24-54 GB).
	TotalBytes int64
	// Grid is the chare/block grid side G.
	Grid int
	// NumPEs is the worker count (paper: 64).
	NumPEs int
}

// The dgemm cost model and the chare pipeline.
const (
	// matmulTrafficScale is how many times one stage task streams its
	// three blocks (sub-block panel re-reads inside dgemm).
	matmulTrafficScale = 3
	// matmulPipeline is the number of chares kept in flight per PE.
	// Depth 1 is strict depth-first (minimum resident C, but the IO
	// thread has nothing to prefetch while a stage computes); depth 2
	// lets the runtime stage one chare's blocks while another computes,
	// hiding the migration latency.
	matmulPipeline = 2
	// matmulIntensity is the dgemm flops executed per byte streamed.
	// The paper observes that "matrix multiplication with optimizations
	// for Xeon Phi KNL and with vectorization becomes bandwidth
	// sensitive as a result of several threads simultaneously accessing
	// data from memory"; ~5 flop/byte puts the 64-thread kernel on the
	// bandwidth-bound side of the roofline against DDR4 while staying
	// near the compute roof on MCDRAM, matching that observation.
	matmulIntensity = 5
)

// DefaultMatMulConfig returns the paper's smallest configuration:
// 24 GB total (8 GB per matrix) on 64 PEs, a 16x16 block grid. Chares
// are scheduled depth-first (at most one active chare per PE; the next
// chare starts when the previous finishes all its stages), so each C
// block is fetched once and stays resident for all its accumulation
// stages, and the active working set — 64 C blocks plus the A/B
// panels in flight — stays constant (the paper's "reduced working set
// size constant at 6GB") as the total grows from 24 to 54 GB.
func DefaultMatMulConfig() MatMulConfig {
	return MatMulConfig{
		TotalBytes: 24 * (1 << 30),
		Grid:       16,
		NumPEs:     64,
	}
}

// GridFor picks the block grid for a total working set on a machine
// with the given HBM budget: the smallest grid (largest blocks, best
// fixed-cost amortisation) whose active C working set — one C block
// per PE under depth-first chare scheduling — still fits comfortably.
func GridFor(totalBytes, hbmBudget int64, numPEs int) int {
	for g := 8; ; g *= 2 {
		// Under depth-first chaining at most one C block per PE is
		// active at a time.
		activeC := int64(numPEs) * (totalBytes / 3) / int64(g*g)
		// Leave a third of the budget for A/B panels and staging.
		if activeC <= hbmBudget*2/3 || int64(g*g) >= totalBytes/3 {
			return g
		}
	}
}

// Validate reports configuration errors.
func (c MatMulConfig) Validate() error {
	switch {
	case c.TotalBytes <= 0:
		return fmt.Errorf("kernels: matmul needs positive working set")
	case c.Grid <= 0:
		return fmt.Errorf("kernels: matmul needs a positive block grid")
	case c.NumPEs <= 0:
		return fmt.Errorf("kernels: matmul needs PEs")
	case c.BlockBytes() < 1:
		return fmt.Errorf("kernels: matmul %dx%d grid over %d bytes leaves blocks under one byte", c.Grid, c.Grid, c.TotalBytes)
	}
	return nil
}

// MatrixBytes returns one matrix's footprint.
func (c MatMulConfig) MatrixBytes() int64 { return c.TotalBytes / 3 }

// BlockBytes returns one block's footprint.
func (c MatMulConfig) BlockBytes() int64 {
	return c.MatrixBytes() / int64(c.Grid*c.Grid)
}

// N returns the matrix dimension implied by the footprint.
func (c MatMulConfig) N() float64 {
	return math.Sqrt(float64(c.MatrixBytes()) / 8)
}

// TaskDepBytes returns the dependence footprint of one stage task:
// one A block, one B block, one C block.
func (c MatMulConfig) TaskDepBytes() int64 { return 3 * c.BlockBytes() }

// Handles returns the managed blocks the application declares: every
// block of A, B and C.
func (c MatMulConfig) Handles() int { return 3 * c.Grid * c.Grid }

// ReducedBytes estimates the resident working set of one wave of
// NumPEs concurrent stage tasks: the A blocks of the rows spanned, the
// B blocks of the stage column shared within the wave, and one C block
// per running task.
func (c MatMulConfig) ReducedBytes() int64 {
	rows := (c.NumPEs + c.Grid - 1) / c.Grid
	if rows < 1 {
		rows = 1
	}
	cols := c.NumPEs
	if cols > c.Grid {
		cols = c.Grid
	}
	blocks := rows + cols + c.NumPEs
	return int64(blocks) * c.BlockBytes()
}

// Tasks returns the total stage-task count (G^3: G^2 chares x G
// stages).
func (c MatMulConfig) Tasks() int { return c.Grid * c.Grid * c.Grid }

// blockCache is the Charm++ nodegroup the paper uses "in order to share
// the common input readonly blocks across tasks depending on them ...
// which allows caching of data at node-level". It exposes the shared A
// and B block handles to every chare.
type blockCache struct {
	A [][]*core.Handle // A[i][k]
	B [][]*core.Handle // B[k][j]
}

// matmulChare owns one output block and tracks its stage progress.
type matmulChare struct {
	i, j  int
	c     *core.Handle
	stage int
}

// MatMulApp is an instantiated blocked-matmul benchmark.
type MatMulApp struct {
	program
	Cfg   MatMulConfig
	arr   *charm.Array
	cache *blockCache
	dgemm *charm.Entry
	red   *charm.Reduction
}

// Build builds the MatMul application on mg, as NewMatMul does.
func (c MatMulConfig) Build(mg *core.Manager) (App, error) { return build(NewMatMul(mg, c)) }

// NewMatMul builds the application on an existing runtime+manager.
//
// Note on MKL: the paper calls cblas_dgemm and sets
// MEMKIND_HBW_NODES=0 so MKL's internal allocations land on DDR4,
// keeping placement of A, B and C the only variable. Our roofline dgemm
// cost model has no hidden allocations, so it is equivalent to that
// neutralised configuration by construction.
func NewMatMul(mg *core.Manager, cfg MatMulConfig) (*MatMulApp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := mg.Runtime()
	if rt.NumPEs() != cfg.NumPEs {
		return nil, fmt.Errorf("kernels: runtime has %d PEs, config wants %d", rt.NumPEs(), cfg.NumPEs)
	}
	g := cfg.Grid
	bb := cfg.BlockBytes()
	if err := fits(mg, cfg, 3*g*g, func(int) int64 { return bb }); err != nil {
		return nil, err
	}
	app := &MatMulApp{Cfg: cfg}
	app.init(mg, "matmul", app.seedPipeline)

	// Declare all blocks. Declaration order interleaves A, B and C so
	// the Naive mode fills HBM with a representative mix, as
	// numa_alloc_onnode in allocation order does in the paper.
	cache := &blockCache{}
	cache.A = make([][]*core.Handle, g)
	cache.B = make([][]*core.Handle, g)
	for i := 0; i < g; i++ {
		cache.A[i] = make([]*core.Handle, g)
		cache.B[i] = make([]*core.Handle, g)
	}
	cs := make([][]*core.Handle, g)
	for i := 0; i < g; i++ {
		cs[i] = make([]*core.Handle, g)
		for j := 0; j < g; j++ {
			cache.A[i][j] = mg.NewHandle(fmt.Sprintf("A[%d,%d]", i, j), bb)
			cache.B[i][j] = mg.NewHandle(fmt.Sprintf("B[%d,%d]", i, j), bb)
			cs[i][j] = mg.NewHandle(fmt.Sprintf("C[%d,%d]", i, j), bb)
		}
	}
	app.cache = cache
	rt.RegisterGroup("matmul.blockCache", cache)

	app.arr = rt.NewArray("matmul", g*g, func(idx int) charm.Chare {
		return &matmulChare{i: idx / g, j: idx % g, c: cs[idx/g][idx%g]}
	}, nil)

	// Stage-k dependences: A[i,k] and B[k,j] read-only (shared),
	// C[i,j] read-write (accumulated in place).
	deps := func(el *charm.Element, msg *charm.Message) []charm.DataDep {
		ch := el.Obj.(*matmulChare)
		k := msg.Data.(int)
		bc := rt.Group("matmul.blockCache").(*blockCache)
		return []charm.DataDep{
			{Handle: bc.A[ch.i][k], Mode: charm.ReadOnly},
			{Handle: bc.B[k][ch.j], Mode: charm.ReadOnly},
			{Handle: ch.c, Mode: charm.ReadWrite},
		}
	}

	// One stage task streams its blocks matmulTrafficScale times and
	// executes matmulIntensity flops per streamed byte.
	// Streamed bytes per scale pass: A + B reads, C read+write.
	taskBytes := matmulTrafficScale * 4 * float64(bb)
	taskFlops := matmulIntensity * taskBytes

	app.dgemm = app.arr.Register(charm.Entry{
		Name:     "dgemm",
		Prefetch: true,
		Deps:     deps,
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
			ch := el.Obj.(*matmulChare)
			mg.RunKernel(p, deps(el, msg), core.KernelSpec{
				Flops:        taskFlops,
				TrafficScale: matmulTrafficScale,
			})
			ch.stage++
			if ch.stage < g {
				// Next accumulation stage for this output block.
				app.arr.Send(el.Index, el.Index, app.dgemm, ch.stage)
			} else {
				// Depth-first chare chaining: this PE's next chare
				// starts only now, so at most matmulPipeline C blocks per
				// PE are active at a time.
				if next := el.Index + app.seedCount(); next < g*g {
					app.arr.Send(el.Index, next, app.dgemm, 0)
				}
				app.red.Contribute()
			}
		},
	})

	app.red = rt.NewReduction(g*g, app.finish)
	return app, nil
}

// seedCount returns how many chares start immediately: matmulPipeline
// per PE, so the IO threads always have a queued chare to stage while
// another computes.
func (app *MatMulApp) seedCount() int {
	seed := matmulPipeline * app.Cfg.NumPEs
	if n := app.arr.Len(); seed > n {
		seed = n
	}
	return seed
}

// seedPipeline starts matmulPipeline chares per PE; the rest chain
// depth-first.
func (app *MatMulApp) seedPipeline() {
	for i := 0; i < app.seedCount(); i++ {
		app.arr.Send(-1, i, app.dgemm, 0)
	}
}
