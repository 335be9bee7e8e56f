package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestConcurrentSubmitsRaceLastSlice drives many concurrent HTTP
// submissions at a machine with room for exactly one more footprint.
// Exactly one session may hold the last slice at a time; the rest queue
// FIFO and the grant ledger must balance to zero at the end. Run under
// -race this also exercises the handler/driver locking.
func TestConcurrentSubmitsRaceLastSlice(t *testing.T) {
	cfg := testConfig()
	// One footprint fits; a second does not (2 GB machine, 1.2 GB each).
	spec := smallStencil("")
	spec.Footprint = 1200 * mb
	spec.Reduced = 512 * mb
	spec.Bytes = 1 * gb
	cfg.Tenants = []TenantConfig{
		{Name: "a", Budget: 2 * gb}, {Name: "b", Budget: 2 * gb},
		{Name: "c", Budget: 2 * gb}, {Name: "d", Budget: 2 * gb},
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := spec
			s.Tenant = string(rune('a' + i%4))
			codes[i], _ = post(t, ts, s)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202 (queue, don't reject)", i, code)
		}
	}
	sched := srv.Scheduler()
	if got := len(sched.running); got != 1 {
		t.Fatalf("%d sessions hold the last slice, want exactly 1", got)
	}
	if _, granted := sched.Budget(); granted != spec.Footprint {
		t.Fatalf("granted = %d, want one footprint %d", granted, spec.Footprint)
	}
	if err := srv.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	for _, sess := range sched.Sessions() {
		if sess.State != Done {
			t.Fatalf("%s = %v (err %q), want done", sess.ID, sess.State, sess.Err)
		}
		snap, ok := sess.MetricsSnapshot()
		if !ok || snap.ViolationCount != 0 {
			t.Fatalf("%s audit: ok=%v violations=%d", sess.ID, ok, snap.ViolationCount)
		}
	}
	if _, granted := sched.Budget(); granted != 0 {
		t.Fatalf("granted = %d after all sessions done, want 0", granted)
	}
	// Serialized execution: with room for only one session, runtimes
	// must not overlap.
	sessions := sched.Sessions()
	for i := 1; i < len(sessions); i++ {
		if sessions[i].Started < sessions[i-1].Finished {
			t.Fatalf("%s started %v before %s finished %v despite exclusive budget",
				sessions[i].ID, sessions[i].Started, sessions[i-1].ID, sessions[i-1].Finished)
		}
	}
}

// TestCancelRaceAgainstLoop cancels sessions over HTTP while the Loop
// goroutine is stepping them — grants must release exactly once no
// matter which side wins, and the ledger must come back to zero.
func TestCancelRaceAgainstLoop(t *testing.T) {
	cfg := testConfig()
	cfg.Audit = false
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loopDone := make(chan struct{})
	go func() { srv.Loop(); close(loopDone) }()

	var ids []string
	for i := 0; i < 6; i++ {
		code, sess := post(t, ts, hogSpec("acme"))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, sess.ID)
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			// 200 (canceled) or 409 (already finished) are both
			// legitimate outcomes of the race.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				t.Errorf("cancel %s = %d", id, resp.StatusCode)
			}
		}(id)
	}
	wg.Wait()
	srv.Close()
	<-loopDone

	sched := srv.Scheduler()
	for _, sess := range sched.Sessions() {
		if !sess.State.Finished() {
			t.Fatalf("%s left %v after cancel race", sess.ID, sess.State)
		}
	}
	if _, granted := sched.Budget(); granted != 0 {
		t.Fatalf("granted = %d after cancel race, want 0 (double release or leak)", granted)
	}
	for _, ten := range sched.StatsSnapshot().Tenants {
		if ten.Granted != 0 {
			t.Fatalf("tenant %s granted = %d, want 0", ten.Name, ten.Granted)
		}
	}
}

// TestAuditConservationAcrossSessions checks the per-session auditors
// under a concurrent multi-tenant mix: every completed session must
// pass the quiescent conservation check (the scheduler runs it on the
// finish path) and report a clean snapshot over HTTP.
func TestAuditConservationAcrossSessions(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []TenantConfig{
		{Name: "a", Budget: 512 * mb, Weight: 2},
		{Name: "b", Budget: 512 * mb, Weight: 1},
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	kernels := []string{"stencil", "shift", "matmul"}
	for i := 0; i < 6; i++ {
		spec := withKernel(smallStencil([]string{"a", "b"}[i%2]), kernels[i%3])
		if code, _ := post(t, ts, spec); code != http.StatusAccepted {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if err := srv.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	for _, sess := range srv.Scheduler().Sessions() {
		if sess.State != Done {
			t.Fatalf("%s = %v (err %q)", sess.ID, sess.State, sess.Err)
		}
		code, raw := get(t, ts, "/v1/sessions/"+sess.ID+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics %s = %d", sess.ID, code)
		}
		var mw metricsWire
		if err := json.Unmarshal(raw, &mw); err != nil {
			t.Fatal(err)
		}
		if mw.Metrics.ViolationCount != 0 {
			t.Fatalf("%s conservation violations: %d", sess.ID, mw.Metrics.ViolationCount)
		}
		if mw.Metrics.HBMHighWater > sess.Footprint {
			t.Fatalf("%s HBM high water %d exceeds granted footprint %d",
				sess.ID, mw.Metrics.HBMHighWater, sess.Footprint)
		}
	}
}
