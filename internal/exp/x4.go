package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
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

// RunAblationEviction compares eviction policies under MultiIO.
func RunAblationEviction(s Scale) (*EvictionResult, error) {
	res := &EvictionResult{Scale: s}

	runStencil := func(lazy bool) (sim.Time, int64, error) {
		opts := s.options(core.MultiIO)
		opts.EvictLazily = lazy
		cfg := s.StencilConfig(s.StencilReducedSizes()[1])
		env := s.newEnv(opts, false)
		defer env.Close()
		app, err := kernels.NewStencil(env.MG, cfg)
		if err != nil {
			return 0, 0, err
		}
		total, err := app.Run()
		if err != nil {
			return 0, 0, err
		}
		return total, env.MG.Stats.Fetches, nil
	}
	runMatMul := func(lazy bool) (sim.Time, int64, error) {
		opts := s.options(core.MultiIO)
		opts.EvictLazily = lazy
		cfg := s.MatMulConfig(s.MatMulTotalSizes()[0])
		env := s.newEnv(opts, false)
		defer env.Close()
		app, err := kernels.NewMatMul(env.MG, cfg)
		if err != nil {
			return 0, 0, err
		}
		total, err := app.Run()
		if err != nil {
			return 0, 0, err
		}
		return total, env.MG.Stats.Fetches, nil
	}

	se, sef, err := runStencil(false)
	if err != nil {
		return nil, err
	}
	sl, slf, err := runStencil(true)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, EvictionRow{App: "Stencil3D", EagerTime: se, LazyTime: sl, EagerFet: sef, LazyFet: slf})

	me, mef, err := runMatMul(false)
	if err != nil {
		return nil, err
	}
	ml, mlf, err := runMatMul(true)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, EvictionRow{App: "MatMul", EagerTime: me, LazyTime: ml, EagerFet: mef, LazyFet: mlf})
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
