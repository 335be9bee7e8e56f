package adapt_test

import (
	"testing"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
)

// stencilRun runs the Small-scale Fig 8 stencil under an adaptive
// controller starting from the given options, returning the controller
// and the environment (audit enabled, not yet checked).
func stencilRun(t *testing.T, opts core.Options, cfg adapt.Config) (*adapt.Controller, *kernels.Env, float64) {
	t.Helper()
	opts.Audit = true
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: 8,
		Opts:   opts,
	})
	t.Cleanup(env.Close)
	scfg := exp.Small.StencilConfig(exp.GB / 2)
	scfg.Iterations = 10
	app, err := kernels.NewStencil(env.MG, scfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := adapt.New(env.MG, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	return ctl, env, total
}

// assertClean fails on any invariant violation or stall.
func assertClean(t *testing.T, env *kernels.Env) {
	t.Helper()
	env.MG.Auditor().CheckQuiescent()
	if err := env.MG.Auditor().Err(); err != nil {
		t.Fatalf("adaptive run not audit-clean: %v", err)
	}
}

// TestStencilConvergesFromSingleIO: starting from the paper's weakest
// movement config (SingleIO, one thread, eager eviction), the
// controller must converge within the run, stay audit-clean, and record
// a non-trivial decision trace.
func TestStencilConvergesFromSingleIO(t *testing.T) {
	ctl, env, _ := stencilRun(t, core.DefaultOptions(core.SingleIO), adapt.Config{})
	assertClean(t, env)
	if !ctl.Verdict().Converged {
		t.Fatalf("controller did not converge; trace:\n%s", ctl.TraceString())
	}
	if ctl.Verdict().ConvergedWindow <= 0 {
		t.Fatalf("settled window = %d, want > 0", ctl.Verdict().ConvergedWindow)
	}
	if len(ctl.Verdict().Trace) < 3 {
		t.Fatalf("suspiciously short trace:\n%s", ctl.TraceString())
	}
	final := ctl.Verdict().Final
	if !final.Mode.Moves() {
		t.Fatalf("controller left a non-movement mode: %+v", final)
	}
	t.Logf("final %+v\n%s", final, ctl.TraceString())
}

// TestStencilDeterministic: two identical adaptive runs take identical
// decisions and finish at the identical virtual time.
func TestStencilDeterministic(t *testing.T) {
	ctl1, env1, total1 := stencilRun(t, core.DefaultOptions(core.SingleIO), adapt.Config{})
	assertClean(t, env1)
	ctl2, env2, total2 := stencilRun(t, core.DefaultOptions(core.SingleIO), adapt.Config{})
	assertClean(t, env2)
	if total1 != total2 {
		t.Fatalf("total time diverged: %v vs %v", total1, total2)
	}
	if ctl1.TraceString() != ctl2.TraceString() {
		t.Fatalf("decision traces diverged:\n--- run 1\n%s--- run 2\n%s",
			ctl1.TraceString(), ctl2.TraceString())
	}
	if ctl1.Verdict().Final != ctl2.Verdict().Final {
		t.Fatalf("final options diverged: %+v vs %+v", ctl1.Verdict().Final, ctl2.Verdict().Final)
	}
}

// TestWarmStartSkipsClimb: seeding a controller with a previous run's
// converged options must adopt them at the first scored window — the
// warm run settles strictly earlier than the cold climb, lands on the
// warm configuration, and stays audit-clean.
func TestWarmStartSkipsClimb(t *testing.T) {
	cold, env, _ := stencilRun(t, core.DefaultOptions(core.SingleIO), adapt.Config{})
	assertClean(t, env)
	if !cold.Verdict().Converged {
		t.Fatalf("cold run did not converge; trace:\n%s", cold.TraceString())
	}
	if cold.Verdict().SettledTime < 0 {
		t.Fatalf("cold run converged but reports no settle time")
	}
	verdict := cold.Verdict().Final

	warm, wenv, _ := stencilRun(t, core.DefaultOptions(core.SingleIO),
		adapt.Config{Warm: &verdict})
	assertClean(t, wenv)
	if !warm.Verdict().WarmStarted {
		t.Fatalf("controller does not report its warm start")
	}
	if !warm.Verdict().Converged {
		t.Fatalf("warm run did not settle; trace:\n%s", warm.TraceString())
	}
	if warm.Verdict().SettledTime >= cold.Verdict().SettledTime {
		t.Fatalf("warm start settled at %v, cold at %v; want strictly earlier:\n%s",
			warm.Verdict().SettledTime, cold.Verdict().SettledTime, warm.TraceString())
	}
	got := warm.Verdict().Final
	if got.Mode != verdict.Mode || got.IOThreads != verdict.IOThreads ||
		got.PrefetchDepth != verdict.PrefetchDepth || got.EvictLazily != verdict.EvictLazily ||
		got.EvictPolicy != verdict.EvictPolicy {
		t.Fatalf("warm run drifted from the verdict before its guard saw a shift:\ngot  %+v\nwant %+v\n%s",
			got, verdict, warm.TraceString())
	}
}

// TestWarmStartRejectsIllegalOptions: a warm verdict naming an invalid
// retunable combination must fail construction, not corrupt the run.
func TestWarmStartRejectsIllegalOptions(t *testing.T) {
	opts := core.DefaultOptions(core.SingleIO)
	opts.Audit = true
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: 8,
		Opts:   opts,
	})
	defer env.Close()
	bad := core.DefaultOptions(core.SingleIO)
	bad.IOThreads = -3
	if _, err := adapt.New(env.MG, nil, adapt.Config{Warm: &bad}); err == nil {
		t.Fatal("accepted a warm verdict with an illegal thread count")
	}
}

// TestMatMulObserverSampling: with no barrier structure, the controller
// samples windows from task completions, one every NumPEs of them, and
// still converges cleanly.
func TestMatMulObserverSampling(t *testing.T) {
	opts := core.DefaultOptions(core.MultiIO)
	opts.Audit = true
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: 8,
		Opts:   opts,
	})
	defer env.Close()
	mcfg := exp.Small.MatMulConfig(3 * exp.GB)
	app, err := kernels.NewMatMul(env.MG, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := adapt.New(env.MG, app, adapt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, env)
	if !ctl.Verdict().Converged {
		t.Fatalf("controller did not converge; trace:\n%s", ctl.TraceString())
	}
	final := ctl.Verdict().Final
	if final.Mode != core.MultiIO {
		t.Fatalf("observer sampling must never switch strategy (no barriers): %+v", final)
	}
	t.Logf("final %+v\n%s", final, ctl.TraceString())
}

// TestNewRejectsUnusableManagers: the controller refuses managers it
// cannot steer or observe.
func TestNewRejectsUnusableManagers(t *testing.T) {
	// Non-movement mode.
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec: exp.Small.Machine(), NumPEs: 2,
		Opts: core.DefaultOptions(core.DDROnly),
	})
	defer env.Close()
	if _, err := adapt.New(env.MG, nil, adapt.Config{}); err == nil {
		t.Fatal("accepted a manager that moves no data")
	}

	// No metrics collector.
	env2 := kernels.NewEnv(kernels.EnvConfig{
		Spec: exp.Small.Machine(), NumPEs: 2,
		Opts: core.DefaultOptions(core.SingleIO),
	})
	defer env2.Close()
	if _, err := adapt.New(env2.MG, nil, adapt.Config{}); err == nil {
		t.Fatal("accepted a manager without metrics")
	}
}
