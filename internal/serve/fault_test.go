package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// faultyApp is a registered kernel that panics 7.5 ms into its run, in
// the middle of the scheduler's second 5 ms window: from a process body,
// or from an event callback it scheduled. With cleanup set it also
// parks a process that panics again when Close unwinds it.
type faultyApp struct {
	eng      *sim.Engine
	inBody   bool
	cleanup  bool
	finished bool
}

func (a *faultyApp) Start() {
	if a.inBody {
		a.eng.Spawn("faulty", func(p *sim.Proc) {
			p.Sleep(7.5e-3)
			panic("kernel fault")
		})
	} else {
		a.eng.After(7.5e-3, func() { panic("kernel fault") })
	}
	if a.cleanup {
		a.eng.Spawn("cleanup", func(p *sim.Proc) {
			defer func() {
				if recover() != nil {
					panic("cleanup fault")
				}
			}()
			p.Suspend()
		})
	}
}

func (a *faultyApp) Run() (sim.Time, error) { a.Start(); a.eng.RunAll(); return 0, nil }
func (a *faultyApp) Done() bool             { return a.finished }
func (a *faultyApp) FinishedAt() sim.Time   { return 0 }

// TestSessionPanicStaysInSession: a registered kernel that panics
// mid-window fails its own session with the panic in Err and returns
// its grant, while a healthy stencil beside it finishes and the daemon
// keeps answering.
func TestSessionPanicStaysInSession(t *testing.T) {
	for _, tc := range []struct {
		name    string
		app     faultyApp
		wantErr string
	}{
		{"process body", faultyApp{inBody: true}, `panic: sim: process "faulty" panicked: kernel fault`},
		{"event callback", faultyApp{}, `panic: kernel fault`},
		{"close", faultyApp{cleanup: true},
			`panic: kernel fault; close: panic: sim: process "cleanup" panicked: cleanup fault`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			s := srv.Scheduler()
			s.RegisterKernel("faulty", registered(func(mg *core.Manager) (kernels.App, error) {
				app := tc.app
				app.eng = mg.Runtime().Engine()
				return &app, nil
			}))
			healthy := mustSubmit(t, s, smallStencil("acme"))
			spec := smallStencil("beta")
			spec.Kernel = "faulty"
			faulty := mustSubmit(t, s, spec)
			if err := srv.RunUntilIdle(0); err != nil {
				t.Fatalf("RunUntilIdle: %v", err)
			}
			if faulty.State != Failed || faulty.Err != tc.wantErr {
				t.Fatalf("faulty session %v (%q), want failed with %q", faulty.State, faulty.Err, tc.wantErr)
			}
			if faulty.Finished != 10e-3 {
				t.Fatalf("faulty session failed at %v, want the end of its second window, 10 ms", faulty.Finished)
			}
			if healthy.State != Done || healthy.Finished <= faulty.Finished {
				t.Fatalf("healthy session %v (%q) at %v, want done after the fault", healthy.State, healthy.Err, healthy.Finished)
			}
			st := s.StatsSnapshot()
			if st.Failed != 1 || st.Completed != 1 || st.Granted != 0 {
				t.Fatalf("stats: failed %d, completed %d, granted %d; want 1, 1, 0", st.Failed, st.Completed, st.Granted)
			}
			for _, ten := range st.Tenants {
				if ten.Granted != 0 || ten.Running != 0 {
					t.Fatalf("tenant %s: granted %d, running %d, want 0, 0", ten.Name, ten.Granted, ten.Running)
				}
			}
			if code, body := get(t, ts, "/healthz"); code != http.StatusOK {
				t.Fatalf("healthz after the fault = %d: %s", code, body)
			}
		})
	}
}
