package adapt

import (
	"slices"
	"testing"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/topology"
)

// TestLadders pins the knob ladders the policy constants produce: the
// SingleIO thread ladder stops at maxIOThreads or the PE count,
// whichever is lower, and the MultiIO depth ladder climbs to
// maxPrefetchDepth whatever the PE count and ends at 0 (unlimited).
func TestLadders(t *testing.T) {
	for _, tc := range []struct {
		mode   core.Mode
		numPEs int
		want   []int
	}{
		{core.SingleIO, 4, []int{1, 2, 4}},
		{core.SingleIO, 8, []int{1, 2, 4, 8}},
		{core.MultiIO, 4, []int{1, 2, 4, 8, 0}},
	} {
		opts := core.DefaultOptions(tc.mode)
		opts.Metrics = true
		env := kernels.NewEnv(kernels.EnvConfig{Spec: topology.KNL7250(), NumPEs: tc.numPEs, Opts: opts})
		c, err := New(env.MG, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.ladder, tc.want) {
			t.Errorf("%v with %d PEs: ladder %v, want %v", tc.mode, tc.numPEs, c.ladder, tc.want)
		}
		env.Close()
	}
}

// TestSamplingFollowsTheApp: New samples an application with iteration
// barriers at each barrier but the last, and any other every NumPEs
// task completions.
func TestSamplingFollowsTheApp(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      kernels.Workload
		every    int64
		barriers int // windows closed at barriers; -1 for none
	}{
		{"stencil", kernels.StencilConfig{TotalBytes: 1 << 20, ReducedBytes: 1 << 18, Iterations: 3, Sweeps: 1, NumPEs: 4}, 0, 2},
		{"shift", kernels.ShiftConfig{HotBytes: 1 << 16, ColdBytes: 1 << 16, NumChares: 8, PreIters: 2, PostIters: 2, Sweeps: 1, NumPEs: 4}, 0, 3},
		{"matmul", kernels.MatMulConfig{TotalBytes: 3 << 20, Grid: 4, NumPEs: 4}, 4, -1},
	} {
		opts := core.DefaultOptions(core.MultiIO)
		opts.Metrics = true
		env := kernels.NewEnv(kernels.EnvConfig{Spec: topology.KNL7250(), NumPEs: 4, Opts: opts})
		app, err := tc.cfg.Build(env.MG)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, err := New(env.MG, app, Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := app.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.every != tc.every {
			t.Errorf("%s: a window every %d completions, want %d", tc.name, c.every, tc.every)
		}
		if tc.barriers >= 0 && c.window != tc.barriers {
			t.Errorf("%s: %d windows, want one per barrier but the last (%d)", tc.name, c.window, tc.barriers)
		}
		if tc.barriers < 0 && c.window == 0 {
			t.Errorf("%s: completion sampling closed no window", tc.name)
		}
		env.Close()
	}
}
