package exp

import (
	"math"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X2: wait-queue topology ablation ---

// QueueAblationResult compares SingleIO with per-PE wait queues (the
// paper's design) against a single shared wait queue (the load-
// imbalance strawman the paper argues against).
type QueueAblationResult struct {
	Scale      Scale
	PerPETime  sim.Time
	SharedTime sim.Time
	// IdleStdDev measures load imbalance: the standard deviation of
	// per-PE idle time.
	PerPEIdleStd  sim.Time
	SharedIdleStd sim.Time
}

// AblationQueues runs the stencil under both queue topologies.
func (sw *Sweep) AblationQueues() (*QueueAblationResult, error) {
	s := sw.Scale
	run := func(shared bool) (sim.Time, sim.Time, error) {
		opts := sw.Options(core.SingleIO)
		opts.SharedWaitQueue = shared
		r := sw.run(opts, s.StencilConfig(s.StencilReducedSizes()[0]))
		r.Projections = true
		o, err := sw.do(r)
		if err != nil {
			return 0, 0, err
		}
		return o.Time, idleStdDev(o.Tracer, s.NumPEs()), nil
	}
	perPE, perStd, err := run(false)
	if err != nil {
		return nil, err
	}
	shared, sharedStd, err := run(true)
	if err != nil {
		return nil, err
	}
	return &QueueAblationResult{
		Scale: s, PerPETime: perPE, SharedTime: shared,
		PerPEIdleStd: perStd, SharedIdleStd: sharedStd,
	}, nil
}

// idleStdDev computes the stddev of per-worker idle time, the load-
// imbalance measure for X2.
func idleStdDev(tr *projections.Tracer, workers int) sim.Time {
	sum := tr.Summarize()
	var mean float64
	vals := make([]float64, 0, workers)
	for pe := 0; pe < len(sum.PerPE) && pe < workers; pe++ {
		vals = append(vals, float64(sum.PerPE[pe][projections.IdleWait]))
		mean += vals[len(vals)-1]
	}
	if len(vals) == 0 {
		return 0
	}
	mean /= float64(len(vals))
	var acc float64
	for _, v := range vals {
		acc += (v - mean) * (v - mean)
	}
	return sim.Time(math.Sqrt(acc / float64(len(vals))))
}

// Table renders X2.
func (r *QueueAblationResult) Table() Table {
	return Table{
		Title:  "X2 (ablation): SingleIO wait-queue topology (Stencil3D)",
		Header: []string{"queues", "total (s)", "per-PE idle stddev (s)"},
		Rows: [][]string{
			{"one per PE (paper)", f2(r.PerPETime), f3(r.PerPEIdleStd)},
			{"single shared", f2(r.SharedTime), f3(r.SharedIdleStd)},
		},
		Notes: []string{
			"paper: per-PE queues avoid the IO thread serving n tasks on one",
			"PE before any other ('serving all PEs equally')",
		},
	}
}
