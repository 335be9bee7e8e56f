package exp

import (
	"fmt"
	"io"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
)

// ProjectionsRun is one traced stencil run: the quantities behind the
// paper's Projections screenshots.
type ProjectionsRun struct {
	Mode core.Mode

	TotalTime sim.Time
	// Utilization is the compute share of worker PE-time (the
	// non-red portion of the paper's timelines).
	Utilization float64
	// OverheadShare is the fetch+evict+lockwait+idle+overhead share
	// of worker PE-time (the red portion).
	OverheadShare float64
	// WorkerFetchPerTask is the average synchronous pre-processing
	// (fetch) time each task spends on its worker PE — Fig. 6's
	// "preprocessing time before compute kernels ... of order of
	// 20 ms" for the synchronous strategy, ~0 for the asynchronous.
	WorkerFetchPerTask sim.Time
	// IdleShare is the wait (idle) share of worker PE-time alone.
	IdleShare float64
	// Timeline is an ASCII rendering of the first worker lanes.
	Timeline string

	tracer *projections.Tracer
}

// WriteSpans exports the run's raw activity spans as JSON (the
// Projections log export).
func (r *ProjectionsRun) WriteSpans(w io.Writer) error {
	return r.tracer.WriteJSON(w)
}

// Fig56Result compares the traced behaviour of the strategies:
// Fig. 5 contrasts Single IO vs Multiple IO overhead ("single IO
// thread has a lot more overhead (red) than multiple IO threads");
// Fig. 6 contrasts synchronous (No IO) vs asynchronous (Multiple IO)
// prefetch overhead on the worker lanes.
type Fig56Result struct {
	Scale Scale
	Runs  map[core.Mode]*ProjectionsRun
}

// Fig56 traces one stencil configuration under Baseline, SingleIO,
// NoIO and MultiIO.
func (sw *Sweep) Fig56() (*Fig56Result, error) {
	s := sw.Scale
	res := &Fig56Result{Scale: s, Runs: make(map[core.Mode]*ProjectionsRun)}
	red := s.StencilReducedSizes()[1] // the middle (4 GB at full scale)
	for _, mode := range []core.Mode{core.Baseline, core.SingleIO, core.NoIO, core.MultiIO} {
		cfg := s.StencilConfig(red)
		r := sw.run(sw.Options(mode), cfg)
		r.Projections = true
		o, err := sw.do(r)
		if err != nil {
			return nil, fmt.Errorf("exp: fig5/6 %v: %w", mode, err)
		}
		sum := o.Tracer.Summarize()
		workers := s.NumPEs()
		// All shares are computed over the WORKER lanes only (lanes
		// below NumPEs); IO threads live on the hyperthread lanes and
		// their activity must not be charged to the workers.
		lane := func(cat projections.Category) sim.Time {
			var v sim.Time
			for pe := 0; pe < len(sum.PerPE) && pe < workers; pe++ {
				v += sum.PerPE[pe][cat]
			}
			return v
		}
		wall := sum.Wall() * sim.Time(workers)
		overhead := lane(projections.Fetch) + lane(projections.Evict) +
			lane(projections.LockWait) + lane(projections.IdleWait) +
			lane(projections.Overhead)
		tasks := cfg.NumChares() * cfg.Iterations
		run := &ProjectionsRun{
			Mode:               mode,
			TotalTime:          o.Time,
			Utilization:        float64(lane(projections.Compute) / wall),
			OverheadShare:      float64(overhead / wall),
			WorkerFetchPerTask: lane(projections.Fetch) / sim.Time(tasks),
			IdleShare:          float64(lane(projections.IdleWait) / wall),
			Timeline:           o.Tracer.Timeline(96),
			tracer:             o.Tracer,
		}
		res.Runs[mode] = run
	}
	return res, nil
}

// Table renders the comparison (Figs. 5 and 6 as one table).
func (r *Fig56Result) Table() Table {
	t := Table{
		Title: "Figs 5-6: Projections of Stencil3D — utilization and overheads",
		Header: []string{"strategy", "total (s)", "utilization",
			"overhead", "idle", "sync fetch/task (ms)"},
		Notes: []string{
			"Fig 5: Single IO thread has far more wait (red) than Multiple IO",
			"Fig 6: synchronous prefetch shows ~20ms pre-processing per task;",
			"asynchronous masks it (0 on worker lanes)",
		},
	}
	for _, mode := range []core.Mode{core.Baseline, core.SingleIO, core.NoIO, core.MultiIO} {
		run := r.Runs[mode]
		t.Rows = append(t.Rows, []string{
			mode.String(),
			f2(run.TotalTime),
			f3(run.Utilization),
			f3(run.OverheadShare),
			f3(run.IdleShare),
			f2(float64(run.WorkerFetchPerTask) * 1e3),
		})
	}
	return t
}
