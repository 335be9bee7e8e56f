package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X3: IO thread count sweep ---

// IOThreadsRow is one point of the IO-thread-count sweep.
type IOThreadsRow struct {
	Threads int
	Time    sim.Time
	Speedup float64 // vs 1 thread
}

// IOThreadsResult is experiment X3: the paper plans "finding more
// optimal IO thread count such that one IO thread can be assigned to a
// subgroup of wait queues".
type IOThreadsResult struct {
	Scale Scale
	Rows  []IOThreadsRow
}

// AblationIOThreads sweeps the SingleIO strategy's thread count.
func (sw *Sweep) AblationIOThreads() (*IOThreadsResult, error) {
	s := sw.Scale
	res := &IOThreadsResult{Scale: s}
	counts := []int{1, 2, 4, 8, 16, 32}
	if s == Small {
		counts = []int{1, 2, 4, 8}
	}
	var base sim.Time
	for _, n := range counts {
		opts := sw.Options(core.SingleIO)
		opts.IOThreads = n
		o, err := sw.do(sw.run(opts, s.StencilConfig(s.StencilReducedSizes()[0])))
		if err != nil {
			return nil, fmt.Errorf("exp: io threads %d: %w", n, err)
		}
		if n == 1 {
			base = o.Time
		}
		res.Rows = append(res.Rows, IOThreadsRow{
			Threads: n, Time: o.Time, Speedup: float64(base) / float64(o.Time),
		})
	}
	return res, nil
}

// Table renders X3.
func (r *IOThreadsResult) Table() Table {
	t := Table{
		Title:  "X3 (ablation): IO thread count for the staging pool (Stencil3D)",
		Header: []string{"IO threads", "total (s)", "speedup vs 1"},
		Notes: []string{
			"the paper's planned 'more optimal IO thread count' study:",
			"between one global IO thread and one per PE",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(row.Threads), f2(row.Time), f2(row.Speedup)})
	}
	return t
}
