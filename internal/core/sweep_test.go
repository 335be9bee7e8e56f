package core_test

import (
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// TestWaitQueueSweepEventStats pins the engine's counts on three Small
// runs per strategy: Fig 8's stencil at its tightest reduced set, Fig
// 9's matmul at its largest working set, and the shift program under
// lazy eviction with the Lookahead victim policy, which reaches
// makeRoom, its forced pass and the wait-queue walk. Every protocol the
// runtime runs between two pieces of user work is a sim.Proc.Drive
// step, with the events of the blocking code it replaced, so
// Scheduled, Fired, Cancelled and Reused are that code's counts. Only
// the split between Resumes and Steps moves: every wake either resumes
// its process or is a step, and a PE now resumes only to run an entry
// method (the stencil gave 18,912, 19,514 and 27,239 resumes with no
// steps, and 13,439, 12,469 and 18,030 with only the dequeue, the
// kernels, the wait-queue scans and Multiple IO's search stepped).
func TestWaitQueueSweepEventStats(t *testing.T) {
	s := exp.Small
	red := s.StencilReducedSizes()[0]
	sizes := s.MatMulTotalSizes()
	total := sizes[len(sizes)-1]
	type run struct {
		name  string
		tasks int64
		want  sim.EventStats
	}
	for _, tc := range []struct {
		mode core.Mode
		runs [3]run
	}{
		{core.SingleIO, [3]run{
			{"stencil", 3240, sim.EventStats{Scheduled: 31358, Fired: 28812, Cancelled: 2546, Reused: 30667, Resumes: 3762, Steps: 15150}},
			{"matmul", 512, sim.EventStats{Scheduled: 16282, Fired: 15176, Cancelled: 1106, Reused: 16257, Resumes: 1034, Steps: 9533}},
			{"shift", 1152, sim.EventStats{Scheduled: 25432, Fired: 24031, Cancelled: 1401, Reused: 25359, Resumes: 2314, Steps: 15121}},
		}},
		{core.NoIO, [3]run{
			{"stencil", 3240, sim.EventStats{Scheduled: 31290, Fired: 29417, Cancelled: 1873, Reused: 30600, Resumes: 3761, Steps: 15753}},
			{"matmul", 512, sim.EventStats{Scheduled: 17626, Fired: 16912, Cancelled: 714, Reused: 17602, Resumes: 1033, Steps: 11537}},
			{"shift", 1152, sim.EventStats{Scheduled: 30040, Fired: 28614, Cancelled: 1426, Reused: 29968, Resumes: 2313, Steps: 19515}},
		}},
		{core.MultiIO, [3]run{
			{"stencil", 3240, sim.EventStats{Scheduled: 38062, Fired: 36218, Cancelled: 1844, Reused: 37364, Resumes: 3769, Steps: 23470}},
			{"matmul", 512, sim.EventStats{Scheduled: 26852, Fired: 25710, Cancelled: 1142, Reused: 26820, Resumes: 1041, Steps: 20060}},
			{"shift", 1152, sim.EventStats{Scheduled: 48715, Fired: 47283, Cancelled: 1432, Reused: 48635, Resumes: 2321, Steps: 38407}},
		}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			for _, r := range tc.runs {
				t.Run(r.name, func(t *testing.T) {
					opts := core.DefaultOptions(tc.mode)
					opts.HBMReserve = s.HBMReserve()
					var cfg kernels.Workload
					switch r.name {
					case "stencil":
						cfg = s.StencilConfig(red)
					case "matmul":
						cfg = s.MatMulConfig(total)
					case "shift":
						opts.EvictLazily = true
						opts.EvictPolicy = core.Lookahead
						cfg = s.ShiftConfig()
					}
					env := kernels.NewEnv(kernels.EnvConfig{
						Spec:   s.Machine(),
						NumPEs: s.NumPEs(),
						Opts:   opts,
						Params: charm.DefaultParams(),
					})
					defer env.Close()
					app, err := cfg.Build(env.MG)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := app.Run(); err != nil {
						t.Fatal(err)
					}
					if n := env.RT.Stats.TasksExecuted; n != r.tasks {
						t.Errorf("ran %d tasks, want %d", n, r.tasks)
					}
					if st := env.Eng.EventStats(); st != r.want {
						t.Errorf("EventStats = %+v, want %+v", st, r.want)
					}
					if rs := env.MG.RoomStats(); r.name == "shift" && rs.ForcedPasses == 0 {
						t.Errorf("makeRoom counters %+v: the shift run took no forced pass", rs)
					}
				})
			}
		})
	}
}
