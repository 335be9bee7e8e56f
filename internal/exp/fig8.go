package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// Fig8Row is one x-position of the Stencil3D speedup figure: a reduced
// working set size with the naive time and per-strategy speedups.
type Fig8Row struct {
	ReducedBytes int64
	NaiveTime    sim.Time
	Times        map[core.Mode]sim.Time
	Speedups     map[core.Mode]float64
	Fetches      map[core.Mode]int64
}

// Fig8Result is the Stencil3D strategy comparison (Fig. 8): 32 GB
// total working set, reduced working set varied, speedup normalised to
// the Naive baseline.
type Fig8Result struct {
	Scale Scale
	Total int64
	Rows  []Fig8Row
}

// RunFig8 sweeps the reduced working set sizes over all strategies.
func RunFig8(s Scale) (*Fig8Result, error) {
	res := &Fig8Result{Scale: s}
	for _, red := range s.StencilReducedSizes() {
		row := Fig8Row{
			ReducedBytes: red,
			Times:        make(map[core.Mode]sim.Time),
			Speedups:     make(map[core.Mode]float64),
			Fetches:      make(map[core.Mode]int64),
		}
		modes := append([]core.Mode{core.Baseline}, StrategyModes()...)
		for _, mode := range modes {
			cfg := s.StencilConfig(red)
			res.Total = cfg.TotalBytes
			env := s.newEnv(s.options(mode), false)
			_, total, err := runApp(env, kernels.NewStencil, cfg)
			if err != nil {
				return nil, fmt.Errorf("exp: fig8 %v at %s: %w", mode, gbs(red), err)
			}
			row.Times[mode] = total
			row.Fetches[mode] = env.MG.Stats.Fetches
		}
		row.NaiveTime = row.Times[core.Baseline]
		for mode, tm := range row.Times {
			row.Speedups[mode] = float64(row.NaiveTime) / float64(tm)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the figure.
func (r *Fig8Result) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Fig 8: Stencil3D speedup vs Naive (total WS %s)", gbs(r.Total)),
		Header: []string{"reduced WS", "naive (s)",
			"Single IO", "No IO", "Multiple IO"},
		Notes: []string{
			"paper: Single IO thread is significantly slow (speedup < 1);",
			"Multiple IO threads best (~2x); No IO thread in between",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			gbs(row.ReducedBytes),
			f2(row.NaiveTime),
			f2(row.Speedups[core.SingleIO]),
			f2(row.Speedups[core.NoIO]),
			f2(row.Speedups[core.MultiIO]),
		})
	}
	return t
}
