package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
)

// Fig2Result compares Stencil3D on HBM vs DDR4 when the dataset fits
// within HBM (Fig. 2): placement is the only difference, no movement.
type Fig2Result struct {
	Scale Scale

	// Total application time per iteration.
	HBMIterTime sim.Time
	DDRIterTime sim.Time

	// Compute-kernel PE-seconds ("total time spent in bandwidth
	// sensitive task" in the figure).
	HBMKernelTime sim.Time
	DDRKernelTime sim.Time
}

// RunFig2 runs the fitting working set on pure-HBM (Baseline placement
// with a fitting set puts everything in MCDRAM) and on pure DDR4.
func RunFig2(s Scale) (*Fig2Result, error) {
	// A grid that fits the HBM budget entirely.
	total := 8 * GB
	if s == Small {
		total = GB
	}
	run := func(mode core.Mode) (sim.Time, sim.Time, error) {
		cfg := s.StencilConfig(total)
		cfg.TotalBytes = total // reduced == total: no over-subscription
		env := s.newEnv(s.options(mode), true)
		app, _, err := runApp(env, kernels.NewStencil, cfg)
		if err != nil {
			return 0, 0, err
		}
		sum := env.Tracer.Summarize()
		return app.AvgIterTime(), sum.Totals[projections.Compute], nil
	}
	hbmIter, hbmKern, err := run(core.Baseline)
	if err != nil {
		return nil, err
	}
	ddrIter, ddrKern, err := run(core.DDROnly)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		Scale:       s,
		HBMIterTime: hbmIter, DDRIterTime: ddrIter,
		HBMKernelTime: hbmKern, DDRKernelTime: ddrKern,
	}, nil
}

// IterRatio returns DDR/HBM iteration-time ratio.
func (r *Fig2Result) IterRatio() float64 { return float64(r.DDRIterTime) / float64(r.HBMIterTime) }

// KernelRatio returns DDR/HBM compute-kernel-time ratio.
func (r *Fig2Result) KernelRatio() float64 {
	return float64(r.DDRKernelTime) / float64(r.HBMKernelTime)
}

// Table renders the figure.
func (r *Fig2Result) Table() Table {
	return Table{
		Title:  "Fig 2: Stencil3D on HBM vs DDR4, dataset fits in HBM",
		Header: []string{"placement", "iter time (s)", "kernel PE-s"},
		Rows: [][]string{
			{"HBM (MCDRAM)", f3(r.HBMIterTime), f2(r.HBMKernelTime)},
			{"DDR4", f3(r.DDRIterTime), f2(r.DDRKernelTime)},
			{"ratio DDR/HBM", f2(r.IterRatio()), f2(r.KernelRatio())},
		},
		Notes: []string{
			"paper: performance on HBM is 3X higher than on DDR4",
			fmt.Sprintf("%s scale", r.Scale),
		},
	}
}
