// Package kernels implements the paper's two evaluation applications as
// chare programs on the runtime: Stencil3D (a 7-point 3-D stencil with
// ghost exchange, the kernel of MIMD-lattice-style codes) and blocked
// dense matrix multiplication with read-only block sharing through a
// nodegroup. Both declare their blocks through the OOC manager and mark
// their compute kernels [prefetch], exactly as the paper's .ci excerpt
// shows:
//
//	entry [prefetch] void compute_kernel() [readwrite:A, writeonly:B]
package kernels

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// StencilConfig sizes a Stencil3D run.
type StencilConfig struct {
	// TotalBytes is the full grid working set (both copies of the
	// grid). The paper uses 32 GB.
	TotalBytes int64
	// ReducedBytes is the over-decomposed working set: the bytes the
	// concurrently-executing wave of chares needs resident (the paper
	// varies 2-8 GB). Per-chare block size is ReducedBytes/NumPEs.
	ReducedBytes int64
	// Iterations is the number of outer iterations (communication
	// rounds) the benchmark runs and reports times for.
	Iterations int
	// Sweeps is the temporal-tiling depth: how many times one
	// compute_kernel invocation sweeps its resident blocks. The paper
	// performs "20 iterations to mimic tiling patterns that increase
	// computation to reduce the overhead incurred by data
	// communication" — this reuse while resident is what lets
	// prefetching pay for its migration traffic.
	Sweeps int
	// NumPEs is the worker count (paper: 64).
	NumPEs int

	// Weight, if non-nil, scales chare i's arithmetic work (an
	// imbalanced physics load, e.g. AMR hot spots). Uniform when nil.
	Weight func(i int) float64
	// BlockMapping places contiguous chare ranges on each PE instead
	// of round-robin — with a skewed Weight this concentrates heavy
	// chares on few PEs, the configuration the load balancer fixes.
	BlockMapping bool
	// LoadBalance runs a greedy measurement-based rebalance after the
	// first iteration (experiment X7).
	LoadBalance bool
}

// The stencil's arithmetic intensity and ghost payload.
const (
	// stencilFlopsPerByte is the update loop's arithmetic intensity
	// (7-point stencil: ~1 flop per byte streamed).
	stencilFlopsPerByte = 1.0
	// ghostFraction is the ghost-face volume relative to a block (the
	// communication payload per neighbour exchange).
	ghostFraction = 0.05
)

// DefaultStencilConfig returns the paper's headline configuration:
// 32 GB total, 4 GB reduced working set, 20 iterations, 64 PEs.
func DefaultStencilConfig() StencilConfig {
	return StencilConfig{
		TotalBytes:   32 * (1 << 30),
		ReducedBytes: 4 * (1 << 30),
		Iterations:   4,
		Sweeps:       20,
		NumPEs:       64,
	}
}

// Validate reports configuration errors.
func (c StencilConfig) Validate() error {
	switch {
	case c.TotalBytes <= 0 || c.ReducedBytes <= 0:
		return fmt.Errorf("kernels: stencil needs positive working set sizes")
	case c.ReducedBytes > c.TotalBytes:
		return fmt.Errorf("kernels: reduced WS %d exceeds total %d", c.ReducedBytes, c.TotalBytes)
	case c.Iterations <= 0:
		return fmt.Errorf("kernels: stencil needs iterations")
	case c.Sweeps <= 0:
		return fmt.Errorf("kernels: stencil needs a positive tiling depth (Sweeps)")
	case c.NumPEs <= 0:
		return fmt.Errorf("kernels: stencil needs PEs")
	case c.ReducedBytes%int64(c.NumPEs) != 0:
		return fmt.Errorf("kernels: reduced WS %d not divisible by %d PEs", c.ReducedBytes, c.NumPEs)
	}
	return nil
}

// ChareBytes returns the per-chare block footprint (A plus B copy).
func (c StencilConfig) ChareBytes() int64 { return c.ReducedBytes / int64(c.NumPEs) }

// NumChares returns the over-decomposition width.
func (c StencilConfig) NumChares() int {
	n := int(c.TotalBytes / c.ChareBytes())
	if n < 1 {
		n = 1
	}
	return n
}

// Handles returns the managed blocks the application declares: each
// chare's two grid copies.
func (c StencilConfig) Handles() int { return 2 * c.NumChares() }

// TaskDepBytes returns one compute task's dependence footprint: a
// chare's two grid copies.
func (c StencilConfig) TaskDepBytes() int64 { return 2 * (c.ChareBytes() / 2) }

// stencilChare holds one chare's two grid copies and its ghost
// bookkeeping.
type stencilChare struct {
	a, b        *core.Handle // current and next grid copy
	ghostsSeen  int
	ghostsWant  int
	neighbours  []int
	ghostBuffer float64 // bytes received this iteration (diagnostics)
}

// StencilApp is an instantiated Stencil3D benchmark.
type StencilApp struct {
	iterative
	Cfg StencilConfig
	arr *charm.Array

	exchange *charm.Entry
	compute  *charm.Entry

	red *charm.Reduction

	// Migrations counts chares moved by the load balancer.
	Migrations int
}

// Build builds the Stencil3D application on mg, as NewStencil does.
func (c StencilConfig) Build(mg *core.Manager) (App, error) { return build(NewStencil(mg, c)) }

// NewStencil builds the application on an existing runtime+manager.
// The manager's mode decides placement and movement.
func NewStencil(mg *core.Manager, cfg StencilConfig) (*StencilApp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := mg.Runtime()
	if rt.NumPEs() != cfg.NumPEs {
		return nil, fmt.Errorf("kernels: runtime has %d PEs, config wants %d", rt.NumPEs(), cfg.NumPEs)
	}
	app := &StencilApp{Cfg: cfg}
	app.init(mg, "stencil", cfg.Iterations, app.sendGhosts)
	n := cfg.NumChares()
	half := cfg.ChareBytes() / 2

	var mapFn func(i int) int
	if cfg.BlockMapping {
		mapFn = charm.MapBlock(n, cfg.NumPEs)
	}
	app.arr = rt.NewArray("stencil3d", n, func(i int) charm.Chare {
		ch := &stencilChare{
			a: mg.NewHandle(fmt.Sprintf("st.A[%d]", i), half),
			b: mg.NewHandle(fmt.Sprintf("st.B[%d]", i), half),
		}
		// 6 neighbours on a 1-D embedding of the 3-D chare grid
		// (±1, ±stride, ±stride²); clipped at the boundary.
		stride := cubeSide(n)
		for _, d := range []int{1, -1, stride, -stride, stride * stride, -stride * stride} {
			if j := i + d; j >= 0 && j < n && j != i {
				ch.neighbours = append(ch.neighbours, j)
			}
		}
		return ch
	}, mapFn)

	// Ghost counting: each chare receives one message per neighbour
	// that lists it (boundaries make this asymmetric, so compute the
	// expected counts exactly).
	incoming := make([]int, n)
	for i := 0; i < n; i++ {
		for _, j := range app.arr.Elem(i).Obj.(*stencilChare).neighbours {
			incoming[j]++
		}
	}
	for i := 0; i < n; i++ {
		app.arr.Elem(i).Obj.(*stencilChare).ghostsWant = incoming[i]
	}

	app.compute = app.arr.Register(charm.Entry{
		Name:     "compute_kernel",
		Prefetch: true,
		Deps: func(el *charm.Element, msg *charm.Message) []charm.DataDep {
			ch := el.Obj.(*stencilChare)
			return []charm.DataDep{
				{Handle: ch.a, Mode: charm.ReadWrite},
				{Handle: ch.b, Mode: charm.WriteOnly},
			}
		},
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
			ch := el.Obj.(*stencilChare)
			deps := []charm.DataDep{
				{Handle: ch.a, Mode: charm.ReadWrite},
				{Handle: ch.b, Mode: charm.WriteOnly},
			}
			// Per sweep the kernel streams A (read+write) and B
			// (write): 3 block-sizes of traffic, repeated Sweeps
			// times over the resident blocks (temporal tiling).
			bytesPerSweep := float64(ch.a.Size()) * 3
			w := 1.0
			if cfg.Weight != nil {
				w = cfg.Weight(el.Index)
			}
			mg.RunKernel(p, deps, core.KernelSpec{
				Flops:        w * bytesPerSweep * float64(cfg.Sweeps) * stencilFlopsPerByte,
				TrafficScale: float64(cfg.Sweeps),
			})
			app.red.Contribute()
		},
	})

	app.exchange = app.arr.Register(charm.Entry{
		Name: "recv_ghost",
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
			ch := el.Obj.(*stencilChare)
			ch.ghostsSeen++
			ch.ghostBuffer += msg.Data.(float64)
			if ch.ghostsSeen == ch.ghostsWant {
				// "update all grid elements with received data":
				// all ghosts in, schedule the bandwidth-sensitive
				// kernel.
				ch.ghostsSeen = 0
				app.arr.Send(el.Index, el.Index, app.compute, nil)
			}
		},
	})

	endIteration := app.endIteration
	if cfg.LoadBalance {
		endIteration = func() {
			if len(app.IterEnd) == 0 {
				// Measurement-based rebalancing at the first iteration
				// boundary, the quiescent point chare migration requires.
				app.Migrations = charm.GreedyRebalance(app.arr, cfg.NumPEs)
			}
			app.endIteration()
		}
	}
	app.red = rt.NewReduction(n, endIteration)
	return app, nil
}

// cubeSide returns the side of the smallest cube holding n chares.
func cubeSide(n int) int {
	s := 1
	for s*s*s < n {
		s++
	}
	return s
}

// sendGhosts starts one iteration: every chare sends its faces to its
// neighbours ("send updated data to neighbors").
func (app *StencilApp) sendGhosts() {
	ghost := float64(app.Cfg.ChareBytes()/2) * ghostFraction
	for i := 0; i < app.arr.Len(); i++ {
		ch := app.arr.Elem(i).Obj.(*stencilChare)
		for _, j := range ch.neighbours {
			app.arr.Send(i, j, app.exchange, ghost)
		}
	}
}

// AvgIterTime returns the mean per-iteration time.
func (app *StencilApp) AvgIterTime() sim.Time {
	if len(app.IterEnd) == 0 {
		return 0
	}
	return (app.IterEnd[len(app.IterEnd)-1] - app.started) / sim.Time(len(app.IterEnd))
}
