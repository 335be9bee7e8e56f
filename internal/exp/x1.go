package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/cachemode"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X1: cache-mode comparison (the paper's future work) ---

// CacheModeRow compares flat-mode MultiIO against the analytic
// cache-mode model for one total working set.
type CacheModeRow struct {
	TotalBytes    int64
	FlatIterTime  sim.Time // measured, MultiIO in flat mode
	CacheIterTime sim.Time // analytic direct-mapped cache model
	HitRate       float64
}

// CacheModeResult is experiment X1.
type CacheModeResult struct {
	Scale Scale
	Rows  []CacheModeRow
}

// CacheMode sweeps stencil working sets across the HBM capacity
// boundary and compares runtime-managed flat mode with hardware cache
// mode.
func (sw *Sweep) CacheMode() (*CacheModeResult, error) {
	s := sw.Scale
	spec := s.Machine()
	cacheCfg := cachemode.DefaultConfig()
	cacheCfg.CacheBytes = spec.HBMCap
	res := &CacheModeResult{Scale: s}

	totals := []int64{8 * GB, 16 * GB, 32 * GB, 48 * GB}
	if s == Small {
		totals = []int64{GB, 2 * GB, 4 * GB, 6 * GB}
	}
	for _, total := range totals {
		cfg := s.StencilConfig(s.StencilReducedSizes()[1])
		cfg.TotalBytes = total
		if cfg.ReducedBytes > total {
			cfg.ReducedBytes = total
		}
		o, err := sw.do(sw.run(sw.Options(core.MultiIO), cfg))
		if err != nil {
			return nil, fmt.Errorf("exp: cachemode at %s: %w", gbs(total), err)
		}

		// Analytic cache mode: the iteration streams the same bytes
		// the kernels do, at the effective cache-mode bandwidth for
		// this working set.
		perIter := float64(cfg.TotalBytes) / 2 * 3 * float64(cfg.Sweeps)
		cache := sim.Time(cacheCfg.StreamTime(spec, total, perIter))
		res.Rows = append(res.Rows, CacheModeRow{
			TotalBytes:    total,
			FlatIterTime:  o.AvgIter,
			CacheIterTime: cache,
			HitRate:       cacheCfg.HitRate(total),
		})
	}
	return res, nil
}

// Table renders X1.
func (r *CacheModeResult) Table() Table {
	t := Table{
		Title:  "X1: flat mode + runtime prefetch vs hardware cache mode (Stencil3D)",
		Header: []string{"total WS", "flat+MultiIO iter (s)", "cache-mode iter (s)", "cache hit rate"},
		Notes: []string{
			"extension: the comparison the paper defers to future work;",
			"cache mode degrades as the working set outgrows MCDRAM",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			gbs(row.TotalBytes), f3(row.FlatIterTime), f3(row.CacheIterTime), f3(row.HitRate),
		})
	}
	return t
}
