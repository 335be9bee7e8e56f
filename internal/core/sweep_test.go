package core_test

import (
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// TestWaitQueueSweepEventStats pins the engine's counts on Fig 8's
// Small-scale stencil at its tightest reduced set, once per strategy.
// Each strategy scans its wait queues under their locks: No IO's
// cross-PE drain, Multiple IO's cross-PE kick and Single IO's
// Algorithm 1 pass. The scans run as sim.Proc.Sweep, which takes the
// same locks with the same events as the Lock/len/Unlock loops they
// replaced, so Scheduled, Fired, Cancelled and Reused are those loops'
// counts. Only Resumes is lower: a process sweeping past empty queues
// resumes once at the end instead of once per lock (the loops gave
// 18,912, 19,514 and 27,239). The PE dequeue, the kernels and Multiple
// IO's search for work run as sim.Proc.Drive steps too (Resumes was
// 18,793, 16,255 and 26,017 with the sweeps alone). Every wake either
// resumes its process or is a step, so Resumes plus Steps is still the
// loops' count.
func TestWaitQueueSweepEventStats(t *testing.T) {
	s := exp.Small
	red := s.StencilReducedSizes()[0]
	for _, tc := range []struct {
		mode core.Mode
		want sim.EventStats
	}{
		{core.SingleIO, sim.EventStats{Scheduled: 31358, Fired: 28812, Cancelled: 2546, Reused: 30667, Resumes: 13439, Steps: 5473}},
		{core.NoIO, sim.EventStats{Scheduled: 31290, Fired: 29417, Cancelled: 1873, Reused: 30600, Resumes: 12469, Steps: 7045}},
		{core.MultiIO, sim.EventStats{Scheduled: 38062, Fired: 36218, Cancelled: 1844, Reused: 37364, Resumes: 18030, Steps: 9209}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			opts := core.DefaultOptions(tc.mode)
			opts.HBMReserve = s.HBMReserve()
			env := kernels.NewEnv(kernels.EnvConfig{
				Spec:   s.Machine(),
				NumPEs: s.NumPEs(),
				Opts:   opts,
				Params: charm.DefaultParams(),
			})
			defer env.Close()
			app, err := kernels.NewStencil(env.MG, s.StencilConfig(red))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := app.Run(); err != nil {
				t.Fatal(err)
			}
			if n := env.RT.Stats.TasksExecuted; n != 3240 {
				t.Fatalf("ran %d tasks, want 3240", n)
			}
			if st := env.Eng.EventStats(); st != tc.want {
				t.Errorf("EventStats = %+v, want %+v", st, tc.want)
			}
		})
	}
}
