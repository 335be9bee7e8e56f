package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// Fig9Row is one x-position of the MatMul speedup figure.
type Fig9Row struct {
	TotalBytes int64
	NaiveTime  sim.Time
	Times      map[core.Mode]sim.Time
	Speedups   map[core.Mode]float64
	Fetches    map[core.Mode]int64
}

// Fig9Result is the MatMul strategy comparison (Fig. 9): total working
// set varied 24-54 GB with the reduced working set held constant by
// the decomposition; DDR4-only bar plus the three strategies, speedup
// normalised to Naive.
type Fig9Result struct {
	Scale Scale
	Rows  []Fig9Row
}

// RunFig9 sweeps the total working set sizes over all modes.
func RunFig9(s Scale) (*Fig9Result, error) {
	res := &Fig9Result{Scale: s}
	for _, total := range s.MatMulTotalSizes() {
		row := Fig9Row{
			TotalBytes: total,
			Times:      make(map[core.Mode]sim.Time),
			Speedups:   make(map[core.Mode]float64),
			Fetches:    make(map[core.Mode]int64),
		}
		modes := append([]core.Mode{core.DDROnly, core.Baseline}, StrategyModes()...)
		for _, mode := range modes {
			cfg := s.MatMulConfig(total)
			env := s.newEnv(s.options(mode), false)
			_, t, err := runApp(env, kernels.NewMatMul, cfg)
			if err != nil {
				return nil, fmt.Errorf("exp: fig9 %v at %s: %w", mode, gbs(total), err)
			}
			row.Times[mode] = t
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
func (r *Fig9Result) Table() Table {
	t := Table{
		Title: "Fig 9: MatMul speedup vs Naive (reduced WS held constant)",
		Header: []string{"total WS", "naive (s)", "DDR4only",
			"Single IO", "No IO", "Multiple IO"},
		Notes: []string{
			"paper: all three strategies comparable (read-only block reuse);",
			"Naive degrades as total WS grows, so speedups rise with size",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			gbs(row.TotalBytes),
			f2(row.NaiveTime),
			f2(row.Speedups[core.DDROnly]),
			f2(row.Speedups[core.SingleIO]),
			f2(row.Speedups[core.NoIO]),
			f2(row.Speedups[core.MultiIO]),
		})
	}
	return t
}
