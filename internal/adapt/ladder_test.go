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
		c, err := New(env.MG, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.ladder, tc.want) {
			t.Errorf("%v with %d PEs: ladder %v, want %v", tc.mode, tc.numPEs, c.ladder, tc.want)
		}
		env.Close()
	}
}
