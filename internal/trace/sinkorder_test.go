package trace_test

import (
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/trace"
)

// runAdaptiveStencil runs the Small overflow-point stencil with an
// adaptive controller attached, optionally also recording, and returns
// the makespan, the controller's decision trace and the capture.
func runAdaptiveStencil(t *testing.T, record bool) (float64, []adapt.Decision, *trace.Capture) {
	t.Helper()
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: exp.Small.NumPEs(),
		Opts:   smallOpts(),
	})
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
	ctl, err := adapt.New(env.MG, adapt.Config{})
	if err != nil {
		t.Fatalf("adapt.New: %v", err)
	}
	ctl.Attach()
	app.OnIteration = func(_ int, resume func()) {
		ctl.Barrier()
		resume()
	}
	mk, err := app.Run()
	if err != nil {
		t.Fatalf("adaptive stencil run: %v", err)
	}
	var c *trace.Capture
	if rec != nil {
		c = rec.Capture()
	}
	return float64(mk), ctl.Trace(), c
}

// doneLog counts the task completions a sink has seen and, at each
// controller decision, records how many it had seen by then.
type doneLog struct {
	dones     int
	atDecided []int
}

func (l *doneLog) Observe(e charm.Event) {
	switch e.Kind {
	case charm.EvTaskDone:
		l.dones++
	case charm.EvDecision:
		l.atDecided = append(l.atDecided, l.dones)
	}
}

// TestSinkOrder is the regression test for the event stream's fan-out.
// With both the adaptive controller and a trace recorder attached, the
// controller keeps deciding and the run is unperturbed; the capture
// interleaves the decisions and the retunes they cause. Sinks fire in
// attach order, and events a sink emits while observing reach every
// sink before the outer emit returns.
func TestSinkOrder(t *testing.T) {
	plainMk, plainDec, _ := runAdaptiveStencil(t, false)
	tracedMk, tracedDec, c := runAdaptiveStencil(t, true)

	if len(tracedDec) == 0 {
		t.Fatalf("controller took no decisions while a recorder was attached")
	}
	if len(tracedDec) != len(plainDec) {
		t.Fatalf("tracing changed the decision count: %d with recorder, %d without",
			len(tracedDec), len(plainDec))
	}
	for i := range plainDec {
		if tracedDec[i].Action != plainDec[i].Action || tracedDec[i].Window != plainDec[i].Window {
			t.Fatalf("decision %d diverged under tracing:\nwith recorder: %v\nwithout:      %v",
				i, tracedDec[i], plainDec[i])
		}
	}
	if tracedMk != plainMk {
		t.Fatalf("tracing perturbed the adaptive run: %v with recorder, %v without", tracedMk, plainMk)
	}

	var adapts, retunes, dones int
	for _, e := range c.Events {
		switch e.(type) {
		case *trace.Adapt:
			adapts++
		case *trace.Retune:
			retunes++
		case *trace.TaskDone:
			dones++
		}
	}
	if adapts != len(tracedDec) {
		t.Fatalf("capture has %d adapt events, controller took %d decisions", adapts, len(tracedDec))
	}
	if dones == 0 {
		t.Fatalf("capture has no task-done events")
	}
	retuned := 0
	for _, d := range tracedDec {
		for _, prefix := range []string{"adopt", "accept", "probe", "switch",
			"revert", "victim-upgrade", "pressure-revert"} {
			if strings.HasPrefix(d.Action, prefix) && !strings.Contains(d.Action, "refused") {
				retuned++
				break
			}
		}
	}
	if retuned > 0 && retunes == 0 {
		t.Fatalf("controller retuned %d times but the capture has no retune events", retuned)
	}

	// Order: a completion-sampled controller decides inside the
	// task-done emit of every k-th task. The recorder, attached before
	// it, has already seen that task's done; a sink attached after it
	// sees the decision first.
	const k = 16
	env := kernels.NewEnv(kernels.EnvConfig{Spec: exp.Small.Machine(), NumPEs: exp.Small.NumPEs(), Opts: smallOpts()})
	defer env.Close()
	app, err := kernels.NewMatMul(env.MG, exp.Small.MatMulConfig(exp.Small.MatMulTotalSizes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(env.MG)
	rec.Attach()
	ctl, err := adapt.New(env.MG, adapt.Config{SampleEvery: k})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Attach()
	after := &doneLog{}
	env.RT.Attach(after)
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	if len(after.atDecided) == 0 || len(after.atDecided) != len(ctl.Trace()) {
		t.Fatalf("the late sink saw %d decisions, the controller took %d", len(after.atDecided), len(ctl.Trace()))
	}
	for i, n := range after.atDecided {
		if n%k != k-1 {
			t.Fatalf("decision %d reached the late sink after %d completions, want one short of a multiple of %d", i, n, k)
		}
	}
	seen := 0
	for _, e := range rec.Capture().Events {
		switch e.(type) {
		case *trace.TaskDone:
			seen++
		case *trace.Adapt:
			if seen == 0 || seen%k != 0 {
				t.Fatalf("an adapt event follows %d done events in the capture, want a multiple of %d", seen, k)
			}
		}
	}
}
