package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X7: load balancing of an imbalanced stencil ---

// LoadBalanceResult is experiment X7: the over-decomposition +
// migratability benefit the paper's background section motivates,
// exercised with a skewed per-chare load.
type LoadBalanceResult struct {
	Scale Scale

	UnbalancedTime sim.Time
	BalancedTime   sim.Time
	Migrations     int

	// Per-iteration times show the rebalance taking effect after
	// iteration 1.
	UnbalancedIters []sim.Time
	BalancedIters   []sim.Time
}

// RunLoadBalance runs a stencil whose first quarter of chares carries
// 4x the arithmetic, block-mapped so the skew lands on a quarter of
// the PEs, with and without the greedy rebalancer.
func RunLoadBalance(s Scale) (*LoadBalanceResult, error) {
	res := &LoadBalanceResult{Scale: s}
	build := func(lb bool) (sim.Time, []sim.Time, int, error) {
		cfg := s.StencilConfig(s.StencilReducedSizes()[1])
		n := cfg.NumChares()
		cfg.Weight = func(i int) float64 {
			if i < n/4 {
				return 4
			}
			return 1
		}
		cfg.BlockMapping = true
		cfg.LoadBalance = lb
		cfg.Iterations = 4
		env := s.newEnv(s.options(core.MultiIO), false)
		defer env.Close()
		app, err := kernels.NewStencil(env.MG, cfg)
		if err != nil {
			return 0, nil, 0, err
		}
		total, err := app.Run()
		if err != nil {
			return 0, nil, 0, err
		}
		iters := make([]sim.Time, len(app.IterEnd))
		prev := sim.Time(0)
		for i, t := range app.IterEnd {
			iters[i] = t - prev
			prev = t
		}
		return total, iters, app.Migrations, nil
	}
	var err error
	res.UnbalancedTime, res.UnbalancedIters, _, err = build(false)
	if err != nil {
		return nil, err
	}
	res.BalancedTime, res.BalancedIters, res.Migrations, err = build(true)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders X7.
func (r *LoadBalanceResult) Table() Table {
	t := Table{
		Title:  "X7: greedy load balancing of an imbalanced Stencil3D (MultiIO)",
		Header: []string{"configuration", "total (s)", "iter 1 (s)", "last iter (s)"},
		Rows: [][]string{
			{"no balancing", f2(r.UnbalancedTime),
				f2(r.UnbalancedIters[0]), f2(r.UnbalancedIters[len(r.UnbalancedIters)-1])},
			{fmt.Sprintf("greedy LB after iter 1 (%d moved)", r.Migrations), f2(r.BalancedTime),
				f2(r.BalancedIters[0]), f2(r.BalancedIters[len(r.BalancedIters)-1])},
		},
		Notes: []string{
			"the over-decomposition benefit of §III-A: 'over-decomposition",
			"with migratability allows for load balancing of chares'",
		},
	}
	return t
}
