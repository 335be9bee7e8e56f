package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X4: eviction policy ablation ---

// EvictionRow compares eager vs lazy eviction for one application.
type EvictionRow struct {
	App       string
	EagerTime sim.Time
	LazyTime  sim.Time
	EagerFet  int64
	LazyFet   int64
}

// EvictionResult is experiment X4: the paper's planned memory-pool
// optimisation ("the creating of space in destination memory could be
// avoided if we maintain a memory pool in each memory type").
type EvictionResult struct {
	Scale Scale
	Rows  []EvictionRow
}

// AblationEviction compares eviction policies under MultiIO.
func (sw *Sweep) AblationEviction() (*EvictionResult, error) {
	s := sw.Scale
	res := &EvictionResult{Scale: s}
	for _, app := range []struct {
		name string
		cfg  any
	}{
		{"Stencil3D", s.StencilConfig(s.StencilReducedSizes()[1])},
		{"MatMul", s.MatMulConfig(s.MatMulTotalSizes()[0])},
	} {
		var runs [2]*Outcome // eager, lazy
		for i := range runs {
			opts := sw.Options(core.MultiIO)
			opts.EvictLazily = i == 1
			o, err := sw.do(sw.run(opts, app.cfg))
			if err != nil {
				return nil, err
			}
			runs[i] = o
		}
		res.Rows = append(res.Rows, EvictionRow{App: app.name,
			EagerTime: runs[0].Time, LazyTime: runs[1].Time,
			EagerFet: runs[0].Stats.Fetches, LazyFet: runs[1].Stats.Fetches})
	}
	return res, nil
}

// Table renders X4.
func (r *EvictionResult) Table() Table {
	t := Table{
		Title:  "X4 (ablation): eager vs lazy (memory-pool) eviction under MultiIO",
		Header: []string{"app", "eager (s)", "lazy (s)", "eager fetches", "lazy fetches"},
		Notes: []string{
			"lazy eviction is the paper's planned memory-pool optimisation:",
			"dead blocks stay in HBM until capacity is needed",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, f2(row.EagerTime), f2(row.LazyTime),
			fmt.Sprint(row.EagerFet), fmt.Sprint(row.LazyFet),
		})
	}
	return t
}
