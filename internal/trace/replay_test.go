package trace_test

import (
	"errors"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/trace"
)

// smallEnv builds a Small-scale environment for one traced run.
func smallEnv(t *testing.T, opts core.Options) *kernels.Env {
	t.Helper()
	return kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: exp.Small.NumPEs(),
		Opts:   opts,
		Params: charm.DefaultParams(),
	})
}

// smallOpts is the MultiIO configuration the replay tests capture under.
func smallOpts() core.Options {
	o := core.DefaultOptions(core.MultiIO)
	o.HBMReserve = exp.Small.HBMReserve()
	o.Metrics = true
	return o
}

// runStencil runs the Small Fig8 overflow point, optionally recording.
func runStencil(t *testing.T, opts core.Options, record bool) (makespan float64, c *trace.Capture) {
	t.Helper()
	env := smallEnv(t, opts)
	defer env.Close()
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder(env.MG)
		rec.Attach()
	}
	sizes := exp.Small.StencilReducedSizes()
	app, err := kernels.NewStencil(env.MG, exp.Small.StencilConfig(sizes[len(sizes)-1]))
	if err != nil {
		t.Fatalf("NewStencil: %v", err)
	}
	mk, err := app.Run()
	if err != nil {
		t.Fatalf("stencil run: %v", err)
	}
	if rec != nil {
		rec.Finish()
		c = rec.Capture()
	}
	return float64(mk), c
}

// TestRecordingIsFree is the capture-overhead guarantee in miniature:
// a traced run must produce the identical virtual makespan as an
// untraced run, because hooks add zero virtual time.
func TestRecordingIsFree(t *testing.T) {
	plain, _ := runStencil(t, smallOpts(), false)
	traced, c := runStencil(t, smallOpts(), true)
	if plain != traced {
		t.Fatalf("recording perturbed the run: untraced %v, traced %v", plain, traced)
	}
	if len(c.Events) == 0 {
		t.Fatalf("traced run captured no events")
	}
}

// TestReplayFidelity replays a capture under identical knobs and
// requires the byte-identical per-task schedule (the X11 invariant at
// Small scale).
func TestReplayFidelity(t *testing.T) {
	_, c := runStencil(t, smallOpts(), true)
	w, err := trace.Reconstruct(c)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if len(w.Tasks) == 0 || len(w.Handles) == 0 {
		t.Fatalf("reconstructed workload is empty: %d tasks, %d handles", len(w.Tasks), len(w.Handles))
	}
	res, err := runner.Replay(w, runner.ReplayConfig{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	got, want := res.Capture.ScheduleString(), c.ScheduleString()
	if got != want {
		t.Fatalf("replayed schedule differs from recorded schedule:\nrecorded %d bytes, replayed %d bytes\nfirst recorded lines:\n%s\nfirst replayed lines:\n%s",
			len(want), len(got), head(want, 5), head(got, 5))
	}
	if rm := c.Stats().Makespan; float64(res.Makespan) != float64(rm) {
		t.Fatalf("replay makespan %v != recorded %v", res.Makespan, rm)
	}
}

// TestWhatIfKnobChange replays under a different eviction policy and
// expects a decoded, self-consistent outcome (the X11 what-if leg
// checks directional consistency with X10 at scale).
func TestWhatIfKnobChange(t *testing.T) {
	opts := smallOpts()
	opts.EvictLazily = true
	opts.PrefetchDepth = 1
	_, c := runStencil(t, opts, true)
	w, err := trace.Reconstruct(c)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	knobs := w.Meta.Knobs
	knobs.EvictPolicy = core.Lookahead.Name()
	res, err := runner.Replay(w, runner.ReplayConfig{Knobs: &knobs})
	if err != nil {
		t.Fatalf("Replay(lookahead): %v", err)
	}
	st := res.Capture.Stats()
	if st == nil {
		t.Fatalf("what-if replay produced no stats footer")
	}
	if st.Fetches == 0 {
		t.Fatalf("what-if replay did no fetching")
	}
	if got := res.Capture.Meta().Knobs.EvictPolicy; got != core.Lookahead.Name() {
		t.Fatalf("what-if capture records policy %q, want lookahead", got)
	}
}

func head(s string, n int) string {
	out := ""
	for i := 0; i < len(s) && n > 0; i++ {
		out += string(s[i])
		if s[i] == '\n' {
			n--
		}
	}
	return out
}

// runTieredShift captures the Small shift workload on a 3-tier chain.
func runTieredShift(t *testing.T) *trace.Capture {
	t.Helper()
	spec, err := exp.Small.TieredMachine(3)
	if err != nil {
		t.Fatal(err)
	}
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   spec,
		NumPEs: exp.Small.NumPEs(),
		Opts:   smallOpts(),
		Params: charm.DefaultParams(),
	})
	defer env.Close()
	rec := trace.NewRecorder(env.MG)
	rec.Attach()
	app, err := kernels.NewShift(env.MG, exp.Small.ShiftConfig())
	if err != nil {
		t.Fatalf("NewShift: %v", err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatalf("shift run: %v", err)
	}
	rec.Finish()
	return rec.Capture()
}

// TestReplayTierMismatch: a capture whose recorded tier chain does not
// match the machine its spec rebuilds is refused with ErrTierMismatch —
// a fetch recorded from NVM has no meaning on a machine without that
// tier. Clearing the recorded chain (what a pre-tier capture looks
// like) skips the check for backward compatibility.
func TestReplayTierMismatch(t *testing.T) {
	c := runTieredShift(t)
	if got := len(c.Meta().Tiers); got != 3 {
		t.Fatalf("3-tier capture records %d tier names, want 3", got)
	}

	// Intact capture replays byte-identically on its own chain.
	w, err := trace.Reconstruct(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Replay(w, runner.ReplayConfig{})
	if err != nil {
		t.Fatalf("Replay on matching 3-tier machine: %v", err)
	}
	if got, want := res.Capture.ScheduleString(), c.ScheduleString(); got != want {
		t.Fatal("3-tier replay schedule differs from recorded schedule")
	}

	// The workloads below share the capture's single Meta event, so each
	// tamper is restored before the next case.
	tiers, extra := w.Meta.Tiers, w.Meta.Spec.ExtraTiers

	// Tampered chain names on an otherwise intact spec: refused.
	w.Meta.Tiers = []string{"MCDRAM", "DDR4"}
	if _, err := runner.Replay(w, runner.ReplayConfig{}); !errors.Is(err, trace.ErrTierMismatch) {
		t.Fatalf("Replay with tampered tier names = %v, want ErrTierMismatch", err)
	}
	w.Meta.Tiers = tiers

	// Spec stripped back to the default two-tier machine: refused.
	w.Meta.Spec.ExtraTiers = nil
	if _, err := runner.Replay(w, runner.ReplayConfig{}); !errors.Is(err, trace.ErrTierMismatch) {
		t.Fatalf("Replay with stripped spec = %v, want ErrTierMismatch", err)
	}

	// Pre-tier captures carry no chain; the check is skipped and the
	// stripped spec replays on whatever machine it describes.
	w.Meta.Tiers = nil
	if _, err := runner.Replay(w, runner.ReplayConfig{}); err != nil {
		t.Fatalf("Replay of tier-less capture: %v", err)
	}
	w.Meta.Tiers, w.Meta.Spec.ExtraTiers = tiers, extra
}
