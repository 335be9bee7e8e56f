package kernels

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// ShiftConfig sizes a working-set-shift run (experiment X10): an
// iterative chare program whose declared dependences change mid-run.
// For the first PreIters iterations every chare touches only its hot
// block; from iteration PreIters on, each task additionally declares a
// cold block it has never used. Sized so the hot set fits HBM and the
// widened set does not, the shift turns a steady in-memory phase into
// an out-of-core phase at a known iteration — the scenario the
// adaptive controller's settled-phase guard and the eviction victim
// policies are tested against.
type ShiftConfig struct {
	// HotBytes is the phase-1 working set (all hot blocks).
	HotBytes int64
	// ColdBytes is the extra working set the shift adds.
	ColdBytes int64
	// NumChares is the over-decomposition width; each chare owns one
	// hot and one cold block.
	NumChares int
	// PreIters is the number of hot-only iterations before the shift.
	PreIters int
	// PostIters is the number of widened iterations after it.
	PostIters int
	// Sweeps is the temporal-tiling depth per kernel invocation.
	Sweeps int
	// NumPEs is the worker count.
	NumPEs int
}

// shiftFlopsPerByte is the shift kernel's arithmetic intensity.
const shiftFlopsPerByte = 1.0

// Validate reports configuration errors.
func (c ShiftConfig) Validate() error {
	switch {
	case c.HotBytes <= 0 || c.ColdBytes <= 0:
		return fmt.Errorf("kernels: shift needs positive working-set sizes")
	case c.NumChares <= 0:
		return fmt.Errorf("kernels: shift needs chares")
	case c.PreIters <= 0 || c.PostIters <= 0:
		return fmt.Errorf("kernels: shift needs iterations on both sides of the shift")
	case c.Sweeps <= 0:
		return fmt.Errorf("kernels: shift needs a positive tiling depth (Sweeps)")
	case c.NumPEs <= 0:
		return fmt.Errorf("kernels: shift needs PEs")
	case c.HotBytes%int64(c.NumChares) != 0:
		return fmt.Errorf("kernels: hot WS %d not divisible by %d chares", c.HotBytes, c.NumChares)
	case c.ColdBytes%int64(c.NumChares) != 0:
		return fmt.Errorf("kernels: cold WS %d not divisible by %d chares", c.ColdBytes, c.NumChares)
	}
	return nil
}

// Iterations returns the total iteration count.
func (c ShiftConfig) Iterations() int { return c.PreIters + c.PostIters }

// Handles returns the managed blocks the application declares: each
// chare's hot and cold block.
func (c ShiftConfig) Handles() int { return 2 * c.NumChares }

// TaskDepBytes returns the largest dependence footprint of one task: a
// chare's hot and cold block, after the shift.
func (c ShiftConfig) TaskDepBytes() int64 {
	return c.HotBytes/int64(c.NumChares) + c.ColdBytes/int64(c.NumChares)
}

// shiftChare owns one hot and one cold block.
type shiftChare struct {
	hot, cold *core.Handle
}

// ShiftApp is an instantiated working-set-shift benchmark.
type ShiftApp struct {
	iterative
	Cfg ShiftConfig
	arr *charm.Array

	compute *charm.Entry
	red     *charm.Reduction
}

// Build builds the shift application on mg, as NewShift does.
func (c ShiftConfig) Build(mg *core.Manager) (App, error) { return build(NewShift(mg, c)) }

// NewShift builds the application on an existing runtime+manager.
func NewShift(mg *core.Manager, cfg ShiftConfig) (*ShiftApp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := mg.Runtime()
	if rt.NumPEs() != cfg.NumPEs {
		return nil, fmt.Errorf("kernels: runtime has %d PEs, config wants %d", rt.NumPEs(), cfg.NumPEs)
	}
	n := cfg.NumChares
	hot := cfg.HotBytes / int64(n)
	cold := cfg.ColdBytes / int64(n)
	// Each chare declares its hot block, then its cold one.
	size := func(i int) int64 {
		if i%2 == 0 {
			return hot
		}
		return cold
	}
	if err := fits(mg, cfg, 2*n, size); err != nil {
		return nil, err
	}
	app := &ShiftApp{Cfg: cfg}
	app.init(mg, "shift", cfg.Iterations(), app.broadcast)

	app.arr = rt.NewArray("shift", n, func(i int) charm.Chare {
		return &shiftChare{
			hot:  mg.NewHandle(fmt.Sprintf("sh.H[%d]", i), hot),
			cold: mg.NewHandle(fmt.Sprintf("sh.C[%d]", i), cold),
		}
	}, nil)

	// Deps closures are resolved at Send time, so the dependence list
	// widens exactly at the first post-shift iteration's sends.
	deps := func(el *charm.Element) []charm.DataDep {
		ch := el.Obj.(*shiftChare)
		d := []charm.DataDep{{Handle: ch.hot, Mode: charm.ReadWrite}}
		if app.Shifted() {
			d = append(d, charm.DataDep{Handle: ch.cold, Mode: charm.ReadOnly})
		}
		return d
	}
	app.compute = app.arr.Register(charm.Entry{
		Name:     "compute_kernel",
		Prefetch: true,
		Deps: func(el *charm.Element, msg *charm.Message) []charm.DataDep {
			return deps(el)
		},
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
			d := deps(el)
			var bytesPerSweep float64
			for _, dep := range d {
				bytesPerSweep += float64(dep.Handle.Size())
			}
			mg.RunKernel(p, d, core.KernelSpec{
				Flops:        bytesPerSweep * float64(cfg.Sweeps) * shiftFlopsPerByte,
				TrafficScale: float64(cfg.Sweeps),
			})
			app.red.Contribute()
		},
	})

	app.red = rt.NewReduction(n, app.endIteration)
	return app, nil
}

// Shifted reports whether the next iteration's tasks use the widened
// dependence set (the shift has happened).
func (app *ShiftApp) Shifted() bool { return len(app.IterEnd) >= app.Cfg.PreIters }

// broadcast starts one iteration: every chare schedules its kernel.
func (app *ShiftApp) broadcast() {
	for i := 0; i < app.arr.Len(); i++ {
		app.arr.Send(i, i, app.compute, nil)
	}
}

// PostShiftTime returns the wall time of the post-shift iterations —
// the phase the eviction policies differentiate on.
func (app *ShiftApp) PostShiftTime() sim.Time {
	if len(app.IterEnd) <= app.Cfg.PreIters {
		return 0
	}
	return app.IterEnd[len(app.IterEnd)-1] - app.IterEnd[app.Cfg.PreIters-1]
}
