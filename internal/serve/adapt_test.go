package serve

import (
	"testing"

	"github.com/hetmem/hetmem/internal/trace"
)

// adaptiveStencil is a stencil submission long enough for the online
// controller to climb and settle within the session.
func adaptiveStencil(tenant string) WorkloadSpec {
	spec := smallStencil(tenant)
	spec.Iterations = 12
	spec.Adapt = true
	return spec
}

// TestAdaptiveSessionRuns pins the tracer wiring: an Adapt submission
// needs the projections tracer in its private environment, and without
// it the controller constructor rejects the session outright.
func TestAdaptiveSessionRuns(t *testing.T) {
	s := mustScheduler(t, testConfig())
	sess := mustSubmit(t, s, adaptiveStencil("acme"))
	if sess.State != Running {
		t.Fatalf("adaptive session did not start: state %v, err %q", sess.State, sess.Err)
	}
	if sess.live.Ctl == nil {
		t.Fatalf("adaptive session has no controller")
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if sess.State != Done {
		t.Fatalf("adaptive session finished %v (%s), want done", sess.State, sess.Err)
	}
}

// TestWarmStartCarriesAcrossSessions: a tenant's converged controller
// verdict seeds the tenant's next adaptive session, which adopts the
// configuration at its first scored window instead of re-climbing —
// so it settles strictly earlier (in engine-local time).
func TestWarmStartCarriesAcrossSessions(t *testing.T) {
	s := mustScheduler(t, testConfig())
	first := mustSubmit(t, s, adaptiveStencil("acme"))
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if first.State != Done {
		t.Fatalf("first session finished %v (%s), want done", first.State, first.Err)
	}
	if first.verdict.WarmStarted {
		t.Fatalf("first session of a tenant must start cold")
	}
	if !first.verdict.Converged {
		t.Fatalf("first adaptive session did not converge; cannot test warm start")
	}
	if first.ten.warm == nil {
		t.Fatalf("converged session left no warm verdict on the tenant")
	}

	second := mustSubmit(t, s, adaptiveStencil("acme"))
	if second.State != Running {
		t.Fatalf("second session did not start: %v (%s)", second.State, second.Err)
	}
	if !second.live.Ctl.Verdict().WarmStarted {
		t.Fatalf("second adaptive session of the tenant did not warm start")
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if second.State != Done {
		t.Fatalf("second session finished %v (%s), want done", second.State, second.Err)
	}
	if !second.verdict.Converged {
		t.Fatalf("warm-started session did not settle")
	}
	cold, warm := first.verdict.SettledTime, second.verdict.SettledTime
	if warm >= cold {
		t.Fatalf("warm start settled at %v, cold at %v; want strictly earlier", warm, cold)
	}
	// A different tenant stays cold: warm verdicts are per-tenant.
	other := mustSubmit(t, s, adaptiveStencil("globex"))
	if other.live.Ctl.Verdict().WarmStarted {
		t.Fatalf("another tenant's session inherited a foreign warm verdict")
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
}

// TestLaneEventsInCapture: traced sessions record the per-window lane
// grants the scheduler hands their tenant, so an exported capture shows
// the contention a session ran under.
func TestLaneEventsInCapture(t *testing.T) {
	s := mustScheduler(t, testConfig())
	specA := smallStencil("acme")
	specA.Trace = true
	specB := smallStencil("globex")
	specB.Trace = true
	a := mustSubmit(t, s, specA)
	b := mustSubmit(t, s, specB)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	for _, sess := range []*Session{a, b} {
		if sess.State != Done {
			t.Fatalf("%s finished %v (%s), want done", sess.ID, sess.State, sess.Err)
		}
		c := sess.TraceCapture()
		if c == nil {
			t.Fatalf("%s has no capture", sess.ID)
		}
		var lanes []*trace.LaneAssign
		for _, ev := range c.Events {
			if la, ok := ev.(*trace.LaneAssign); ok {
				lanes = append(lanes, la)
			}
		}
		if len(lanes) == 0 {
			t.Fatalf("%s capture has no lane-assignment events", sess.ID)
		}
		prev := -1
		for _, la := range lanes {
			if la.Window <= prev {
				t.Fatalf("%s lane windows not increasing: %d after %d", sess.ID, la.Window, prev)
			}
			prev = la.Window
			if la.Lanes < 0 || la.Total <= 0 || la.Lanes > la.Total {
				t.Fatalf("%s lane grant out of range: %d of %d", sess.ID, la.Lanes, la.Total)
			}
			if la.Active < 1 {
				t.Fatalf("%s lane event with no active sessions", sess.ID)
			}
		}
	}
}

// TestAdaptiveSessionWithoutBarriersDecides: an app with no iteration
// barriers — the built-in matmul, or a registered kernel — is sampled
// every NumPEs task completions, so its adaptive session closes windows
// and takes decisions like a stencil's.
func TestAdaptiveSessionWithoutBarriersDecides(t *testing.T) {
	for _, kernel := range []string{"matmul", "custom"} {
		t.Run(kernel, func(t *testing.T) {
			s := mustScheduler(t, testConfig())
			s.RegisterKernel("custom", matmulConfig)
			spec := withKernel(smallStencil("acme"), kernel)
			spec.Adapt = true
			sess := mustSubmit(t, s, spec)
			if err := s.RunUntilIdle(0); err != nil {
				t.Fatalf("RunUntilIdle: %v", err)
			}
			if sess.State != Done {
				t.Fatalf("session finished %v (%s), want done", sess.State, sess.Err)
			}
			v := sess.verdict
			if v == nil || len(v.Trace) == 0 {
				t.Fatalf("adaptive %s session took no decisions", kernel)
			}
			if last := v.Trace[len(v.Trace)-1]; last.Window < 1 || v.ConvergedWindow < 1 {
				t.Fatalf("adaptive %s session closed no window: last decision %v, converged window %d",
					kernel, last, v.ConvergedWindow)
			}
		})
	}
}

// TestWarmStartRetunesAfterTheAppIsBuilt: a session builds its app
// before its controller, so a warm-started session's retune follows the
// app's block declarations in its capture.
func TestWarmStartRetunesAfterTheAppIsBuilt(t *testing.T) {
	s := mustScheduler(t, testConfig())
	mustSubmit(t, s, adaptiveStencil("acme"))
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	spec := adaptiveStencil("acme")
	spec.Trace = true
	warm := mustSubmit(t, s, spec)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if warm.State != Done || !warm.verdict.WarmStarted {
		t.Fatalf("second session %v (%s), warm started %v; want a done warm start", warm.State, warm.Err, warm.verdict.WarmStarted)
	}
	lastHandle, firstRetune := -1, -1
	for i, ev := range warm.TraceCapture().Events {
		switch ev.(type) {
		case *trace.HandleDecl:
			lastHandle = i
		case *trace.Retune:
			if firstRetune < 0 {
				firstRetune = i
			}
		}
	}
	if lastHandle < 0 || firstRetune < lastHandle {
		t.Fatalf("first retune at event %d, last handle declaration at %d; want the retune after", firstRetune, lastHandle)
	}
}
