package exp

import (
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
)

// TestMakeRoomCountersPinned pins makeRoom's work on the Small shift
// run (X10's fixed run) under each victim policy, beside the run's
// eviction and refetch counts: a change to victim selection that moves
// either shows here.
func TestMakeRoomCountersPinned(t *testing.T) {
	want := map[string]struct {
		room                 core.RoomStats
		evictions, refetches int64
	}{
		"decl":      {core.RoomStats{Calls: 248, ForcedPasses: 135, Candidates: 34500, Popped: 1170}, 464, 432},
		"lru":       {core.RoomStats{Calls: 265, ForcedPasses: 116, Candidates: 34349, Popped: 1207}, 496, 464},
		"lookahead": {core.RoomStats{Calls: 240, ForcedPasses: 42, Candidates: 24767, Popped: 637}, 393, 361},
	}
	sw := &Sweep{Scale: Small}
	for _, pol := range core.EvictPolicies() {
		r := sw.x10Shift(pol)
		env := kernels.NewEnv(kernels.EnvConfig{Spec: r.Spec, NumPEs: r.NumPEs, Opts: r.Opts, Params: charm.DefaultParams()})
		app, err := kernels.NewShift(env.MG, r.App.(kernels.ShiftConfig))
		if err == nil {
			_, err = app.Run()
		}
		env.Close()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		w := want[pol.Name()]
		if got := env.MG.RoomStats(); got != w.room {
			t.Errorf("%s: makeRoom counters %+v, want %+v", pol.Name(), got, w.room)
		}
		if st := env.MG.Stats; st.Evictions != w.evictions || st.Refetches != w.refetches {
			t.Errorf("%s: %d evictions and %d refetches, want %d and %d",
				pol.Name(), st.Evictions, st.Refetches, w.evictions, w.refetches)
		}
	}
}
