package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X6: prefetch depth (the §IV-D "when to prefetch" trade-off) ---

// PrefetchDepthRow is one point of the depth sweep.
type PrefetchDepthRow struct {
	Depth   int // 0 = unlimited
	Time    sim.Time
	Fetches int64
}

// PrefetchDepthResult is experiment X6: bounding how far ahead the
// MultiIO IO threads stage.
type PrefetchDepthResult struct {
	Scale Scale
	Rows  []PrefetchDepthRow
}

// AblationPrefetchDepth sweeps the MultiIO prefetch depth on the
// stencil.
func (sw *Sweep) AblationPrefetchDepth() (*PrefetchDepthResult, error) {
	s := sw.Scale
	res := &PrefetchDepthResult{Scale: s}
	for _, depth := range []int{1, 2, 4, 8, 0} {
		opts := sw.Options(core.MultiIO)
		opts.PrefetchDepth = depth
		o, err := sw.do(sw.run(opts, s.StencilConfig(s.StencilReducedSizes()[1])))
		if err != nil {
			return nil, fmt.Errorf("exp: prefetch depth %d: %w", depth, err)
		}
		res.Rows = append(res.Rows, PrefetchDepthRow{Depth: depth, Time: o.Time, Fetches: o.Stats.Fetches})
	}
	return res, nil
}

// Table renders X6.
func (r *PrefetchDepthResult) Table() Table {
	t := Table{
		Title:  "X6 (ablation): MultiIO prefetch depth (Stencil3D)",
		Header: []string{"depth", "total (s)", "fetches"},
		Notes: []string{
			"§IV-D: prefetch must overlap computation; depth 1 serialises",
			"staging behind each task, deeper pipelines hide it",
		},
	}
	for _, row := range r.Rows {
		d := fmt.Sprint(row.Depth)
		if row.Depth == 0 {
			d = "unlimited"
		}
		t.Rows = append(t.Rows, []string{d, f2(row.Time), fmt.Sprint(row.Fetches)})
	}
	return t
}
