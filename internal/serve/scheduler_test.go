package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
	"github.com/hetmem/hetmem/internal/trace"
)

// testSpec is the 1/8 KNL slice the exp package uses for unit tests.
func testSpec() topology.MachineSpec {
	spec := topology.KNL7250()
	spec.Cores = 8
	spec.TilesL2 = 4
	spec.HBMCap = 2 * topology.GB
	spec.DDRCap = 12 * topology.GB
	spec.HBMReadBW /= 8
	spec.HBMWriteBW /= 8
	spec.HBMTotalBW /= 8
	spec.DDRReadBW /= 8
	spec.DDRWriteBW /= 8
	spec.DDRTotalBW /= 8
	spec.MemcpyBW /= 8
	return spec
}

const (
	mb = int64(1) << 20
	gb = int64(1) << 30
)

func testConfig() Config {
	return Config{
		Spec:   testSpec(),
		NumPEs: 8,
		Fair:   true,
		Audit:  true,
	}
}

// smallStencil is a fast out-of-core stencil submission.
func smallStencil(tenant string) WorkloadSpec {
	return WorkloadSpec{
		Tenant:     tenant,
		Kernel:     "stencil",
		Bytes:      512 * mb,
		Reduced:    128 * mb,
		Footprint:  192 * mb,
		Iterations: 2,
		Sweeps:     4,
	}
}

func mustScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	return s
}

func mustSubmit(t *testing.T, s *Scheduler, spec WorkloadSpec) *Session {
	t.Helper()
	sess, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return sess
}

// tickApp is a kernel from outside the built-ins: a chain of ticks 1 µs
// apart on the session's engine, Done after want of them. It schedules
// at most limit ticks, so with limit < want its engine goes idle before
// Done.
type tickApp struct {
	eng                *sim.Engine
	ticks, want, limit int
	end                sim.Time
}

func (a *tickApp) Start() { a.eng.After(1e-6, a.tick) }

func (a *tickApp) tick() {
	a.ticks++
	if a.ticks == a.want {
		a.end = a.eng.Now()
	} else if a.ticks < a.limit {
		a.eng.After(1e-6, a.tick)
	}
}

func (a *tickApp) Done() bool           { return a.ticks == a.want }
func (a *tickApp) FinishedAt() sim.Time { return a.end }

// registerTickKernels adds three kernels through RegisterKernel:
// "ticks" finishes, "stall" idles its engine before Done, and "broken"
// fails in its builder.
func registerTickKernels(s *Scheduler) {
	s.RegisterKernel("ticks", func(env *kernels.Env, _ WorkloadSpec) (App, error) {
		return &tickApp{eng: env.Eng, want: 1000, limit: 1000}, nil
	})
	s.RegisterKernel("stall", func(env *kernels.Env, _ WorkloadSpec) (App, error) {
		return &tickApp{eng: env.Eng, want: 1000, limit: 10}, nil
	})
	s.RegisterKernel("broken", func(*kernels.Env, WorkloadSpec) (App, error) {
		return nil, errors.New("no device")
	})
}

func TestSessionLifecycleAllKernels(t *testing.T) {
	for _, kernel := range []string{"stencil", "shift", "matmul", "ticks"} {
		t.Run(kernel, func(t *testing.T) {
			s := mustScheduler(t, testConfig())
			registerTickKernels(s)
			spec := smallStencil("acme")
			spec.Kernel = kernel
			sess := mustSubmit(t, s, spec)
			if sess.State != Running {
				t.Fatalf("state after submit with free budget = %v, want running", sess.State)
			}
			app := sess.app
			if err := s.RunUntilIdle(0); err != nil {
				t.Fatal(err)
			}
			if sess.State != Done {
				t.Fatalf("state = %v (err %q), want done", sess.State, sess.Err)
			}
			if sess.Makespan() <= 0 {
				t.Fatalf("makespan = %v, want > 0", sess.Makespan())
			}
			if sess.Finished <= sess.Started {
				t.Fatalf("finished %v <= started %v", sess.Finished, sess.Started)
			}
			if want := sess.base + app.FinishedAt(); sess.Finished != want {
				t.Fatalf("finished %v, want the app's completion %v", sess.Finished, want)
			}
			if sess.env != nil || sess.app != nil || sess.ctl != nil {
				t.Fatal("a finished session still holds its environment, app or controller")
			}
			if _, granted := s.Budget(); granted != 0 {
				t.Fatalf("granted after completion = %d, want 0", granted)
			}
			snap, ok := sess.MetricsSnapshot()
			if !ok {
				t.Fatal("no metrics snapshot after completion")
			}
			if snap.ViolationCount != 0 {
				t.Fatalf("audit violations: %d", snap.ViolationCount)
			}
		})
	}
}

// TestRegisteredKernelFailures: a registered kernel whose builder
// errors and one whose engine goes idle before Done each fail their
// session with the reason and return the grant exactly once, while a
// healthy session beside them finishes.
func TestRegisteredKernelFailures(t *testing.T) {
	s := mustScheduler(t, testConfig())
	registerTickKernels(s)
	healthy := mustSubmit(t, s, smallStencil("acme"))
	spec := smallStencil("beta")
	spec.Kernel = "broken"
	broken := mustSubmit(t, s, spec)
	spec.Kernel = "stall"
	stalled := mustSubmit(t, s, spec)
	if broken.State != Failed || !strings.HasPrefix(broken.Err, "build broken: no device") {
		t.Fatalf("broken builder: session %v (%q), want failed at build", broken.State, broken.Err)
	}
	if _, granted := s.Budget(); granted != healthy.Footprint+stalled.Footprint {
		t.Fatalf("granted = %d after the builder failed, want %d", granted, healthy.Footprint+stalled.Footprint)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if stalled.State != Failed || !strings.HasPrefix(stalled.Err, "deadlock: engine idle before completion") {
		t.Fatalf("stalled app: session %v (%q), want failed as a deadlock", stalled.State, stalled.Err)
	}
	if healthy.State != Done {
		t.Fatalf("healthy session = %v (err %q), want done", healthy.State, healthy.Err)
	}
	st := s.StatsSnapshot()
	if st.Granted != 0 || st.Failed != 2 || st.Completed != 1 {
		t.Fatalf("stats: granted %d, failed %d, completed %d; want 0, 2, 1", st.Granted, st.Failed, st.Completed)
	}
	for _, ten := range st.Tenants {
		if ten.Granted != 0 || ten.Running != 0 {
			t.Fatalf("tenant %s: granted %d, running %d after idle, want 0, 0", ten.Name, ten.Granted, ten.Running)
		}
	}
}

// TestReplacedBuiltinIsRegistered: a kernel registered under a
// built-in's name is sized and validated like any registered kernel,
// not as the built-in it replaces.
func TestReplacedBuiltinIsRegistered(t *testing.T) {
	s := mustScheduler(t, testConfig())
	s.RegisterKernel("stencil", func(env *kernels.Env, _ WorkloadSpec) (App, error) {
		return &tickApp{eng: env.Eng, want: 1000, limit: 1000}, nil
	})
	spec := smallStencil("acme")
	spec.Reduced = 1 // the built-in stencil would declare 2^28 blocks
	sess := mustSubmit(t, s, spec)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if sess.State != Done {
		t.Fatalf("session %v (%q), want done", sess.State, sess.Err)
	}
}

func TestAdmissionQueuesOnTenantBudget(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []TenantConfig{{Name: "acme", Budget: 256 * mb}}
	s := mustScheduler(t, cfg)
	first := mustSubmit(t, s, smallStencil("acme"))
	second := mustSubmit(t, s, smallStencil("acme"))
	if first.State != Running || second.State != Queued {
		t.Fatalf("states = %v/%v, want running/queued", first.State, second.State)
	}
	// Another tenant is not blocked by acme's exhausted budget.
	other := mustSubmit(t, s, smallStencil("beta"))
	if other.State != Running {
		t.Fatalf("other tenant state = %v, want running (tenant budgets must isolate)", other.State)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{first, second, other} {
		if sess.State != Done {
			t.Fatalf("%s state = %v (err %q), want done", sess.ID, sess.State, sess.Err)
		}
	}
	// The queued session could only start after the first released
	// the tenant budget.
	if second.Started < first.Finished {
		t.Fatalf("second started %v before first finished %v despite exhausted tenant budget",
			second.Started, first.Finished)
	}
}

func TestGlobalBudgetIsFIFO(t *testing.T) {
	cfg := testConfig()
	// Tenant budgets large enough that only the machine blocks.
	cfg.Tenants = []TenantConfig{
		{Name: "a", Budget: 2 * gb}, {Name: "b", Budget: 2 * gb},
	}
	s := mustScheduler(t, cfg)
	big := smallStencil("a")
	big.Footprint = 1536 * mb
	big.Reduced = 1024 * mb
	big.Bytes = 2 * gb
	first := mustSubmit(t, s, big)
	blockedBig := mustSubmit(t, s, big) // machine-blocked: 2x1536MB > 2GB
	small := mustSubmit(t, s, smallStencil("b"))
	if first.State != Running {
		t.Fatalf("first = %v, want running", first.State)
	}
	if blockedBig.State != Queued || small.State != Queued {
		t.Fatalf("queue states = %v/%v, want queued/queued (no overtaking past a machine-blocked head)",
			blockedBig.State, small.State)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if blockedBig.Started > small.Started {
		t.Fatalf("FIFO violated: blocked head started %v after the session behind it %v",
			blockedBig.Started, small.Started)
	}
}

func TestRejections(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []TenantConfig{{Name: "acme", Budget: 256 * mb}}
	cfg.MaxQueue = 1
	s := mustScheduler(t, cfg)

	over := smallStencil("acme")
	over.Footprint = 512 * mb
	if _, err := s.Submit(over); err == nil || !strings.Contains(err.Error(), "exceeds budget") {
		t.Fatalf("over-budget submit err = %v, want ErrOverBudget", err)
	}
	if _, err := s.Submit(WorkloadSpec{Tenant: "acme", Kernel: "nope"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := s.Submit(WorkloadSpec{Kernel: "stencil"}); err == nil {
		t.Fatal("missing tenant accepted")
	}
	bad := smallStencil("acme")
	bad.Strategy = "multi"
	bad.IOThreads = 4 // only legal for single
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("invalid knob combination accepted")
	}
	tiny := smallStencil("acme")
	tiny.Footprint = 1 * mb // cannot hold one chare's blocks
	if _, err := s.Submit(tiny); err == nil {
		t.Fatal("footprint below one task's dependences accepted")
	}
	fine := smallStencil("acme")
	fine.Reduced = 1 // 4-byte chares: 2^28 blocks
	if _, err := s.Submit(fine); err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Fatalf("decomposition into 2^28 blocks: err = %v, want a rejection", err)
	}

	// Queue-full: fill the one slot, then overflow.
	mustSubmit(t, s, smallStencil("acme")) // runs
	mustSubmit(t, s, smallStencil("acme")) // queued
	if _, err := s.Submit(smallStencil("acme")); err != ErrQueueFull {
		t.Fatalf("queue overflow err = %v, want ErrQueueFull", err)
	}
	// Rejected submissions never become sessions.
	if n := len(s.Sessions()); n != 2 {
		t.Fatalf("sessions = %d, want 2", n)
	}
}

// assertRejected submits body over HTTP and spec in process, and
// checks that both are refused with a 400 and an error naming want, and
// that neither leaves a session behind.
func assertRejected(t *testing.T, spec WorkloadSpec, want string) {
	t.Helper()
	s := mustScheduler(t, testConfig())
	if sess, err := s.Submit(spec); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Submit = %v, %v; want an error naming %q", sess, err, want)
	}
	srv, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("POST %s = %d %s, want 400 naming %q", body, rec.Code, rec.Body, want)
	}
	if n := len(s.Sessions()) + len(srv.Scheduler().Sessions()); n != 0 {
		t.Fatalf("%d sessions recorded for a rejected submission", n)
	}
}

// TestDegenerateMatMulFails: a matmul whose blocks would be zero bytes
// is refused at submit, by the configuration's own validation, instead
// of failing its session at start.
func TestDegenerateMatMulFails(t *testing.T) {
	assertRejected(t, WorkloadSpec{Tenant: "acme", Kernel: "matmul", Bytes: 1, Footprint: 1}, "under one byte")
}

// TestRoundedStencilRejected: rounding the active set up to 4 PEs'
// worth can lift it past the total. Submit validates the configuration
// it will build, rounding included, so the stencil is refused there
// rather than failing its session at start.
func TestRoundedStencilRejected(t *testing.T) {
	spec := WorkloadSpec{Tenant: "acme", Kernel: "stencil", Bytes: 100*mb - 1, Reduced: 100*mb - 2}
	assertRejected(t, spec, "reduced WS 104857600 exceeds total 104857599")
}

// TestDecompositionMatchesApp: the geometry Submit sizes a session by is
// the built app's own. Its block count is the handles the app declares,
// and its minimum grant the largest dependence set a task is admitted
// with.
func TestDecompositionMatchesApp(t *testing.T) {
	specs := []WorkloadSpec{
		smallStencil("acme"),
		{Tenant: "acme", Bytes: 300*mb + 7, Reduced: 100*mb + 3, Footprint: 160 * mb, Iterations: 2, Sweeps: 2},
		{Tenant: "acme", Bytes: 96 * mb, Reduced: 64 * mb, Footprint: 96 * mb, Iterations: 3, Sweeps: 2},
	}
	for _, kernel := range []string{"stencil", "shift", "matmul"} {
		for i, spec := range specs {
			spec.Kernel, spec.Trace = kernel, true
			t.Run(fmt.Sprintf("%s/%d", kernel, i), func(t *testing.T) {
				s := mustScheduler(t, testConfig())
				sess := mustSubmit(t, s, spec)
				min, blocks := decomposition(s.kernels[kernel].config(sess.Spec, s.cfg.NumPEs))
				if n := int64(len(sess.env.MG.Handles())); n != blocks {
					t.Fatalf("sized by %d blocks, the app declares %d", blocks, n)
				}
				if err := s.RunUntilIdle(0); err != nil {
					t.Fatal(err)
				}
				if sess.State != Done {
					t.Fatalf("session %v (%q), want done", sess.State, sess.Err)
				}
				var most int64
				for _, ev := range sess.TraceCapture().Events {
					if a, ok := ev.(*trace.Admit); ok && a.Bytes > most {
						most = a.Bytes
					}
				}
				if most != min {
					t.Fatalf("minimum grant %d, the largest admitted dependence set %d", min, most)
				}
			})
		}
	}
}

func TestCancelWhileQueued(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []TenantConfig{{Name: "acme", Budget: 256 * mb}}
	s := mustScheduler(t, cfg)
	running := mustSubmit(t, s, smallStencil("acme"))
	queued := mustSubmit(t, s, smallStencil("acme"))
	if _, err := s.Cancel(queued.ID, "test"); err != nil {
		t.Fatal(err)
	}
	if queued.State != Canceled {
		t.Fatalf("state = %v, want canceled", queued.State)
	}
	if _, err := s.Cancel(queued.ID, "again"); err != ErrFinished {
		t.Fatalf("second cancel err = %v, want ErrFinished", err)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if running.State != Done {
		t.Fatalf("running session = %v (err %q), want done", running.State, running.Err)
	}
	if _, granted := s.Budget(); granted != 0 {
		t.Fatalf("granted = %d after all sessions finished, want 0", granted)
	}
}

func TestCancelMidStaging(t *testing.T) {
	s := mustScheduler(t, testConfig())
	sess := mustSubmit(t, s, smallStencil("acme"))
	// A few windows in, staging is in full flight.
	for i := 0; i < 3; i++ {
		s.Step()
	}
	if sess.State != Running {
		t.Fatalf("state = %v, want running after 3 windows", sess.State)
	}
	if _, granted := s.Budget(); granted != sess.Footprint {
		t.Fatalf("granted = %d, want %d", granted, sess.Footprint)
	}
	if _, err := s.Cancel(sess.ID, "test"); err != nil {
		t.Fatal(err)
	}
	if sess.State != Canceled {
		t.Fatalf("state = %v, want canceled", sess.State)
	}
	if _, granted := s.Budget(); granted != 0 {
		t.Fatalf("granted = %d after mid-staging cancel, want 0 (released exactly once)", granted)
	}
	if _, err := s.Cancel(sess.ID, "again"); err != ErrFinished {
		t.Fatalf("double cancel err = %v, want ErrFinished", err)
	}
	if _, granted := s.Budget(); granted != 0 {
		t.Fatalf("granted = %d after double cancel, want 0", granted)
	}
	// The scheduler stays usable: a fresh session admits and runs.
	next := mustSubmit(t, s, smallStencil("acme"))
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if next.State != Done {
		t.Fatalf("next session = %v (err %q), want done", next.State, next.Err)
	}
}

// signature renders every externally observable outcome of a run.
func signature(s *Scheduler) string {
	var b strings.Builder
	for _, sess := range s.Sessions() {
		fmt.Fprintf(&b, "%s %s %s %v %v %v %d\n",
			sess.ID, sess.Tenant, sess.State, sess.Arrival, sess.Started, sess.Finished, sess.Footprint)
	}
	st := s.StatsSnapshot()
	fmt.Fprintf(&b, "%+v\n", st)
	return b.String()
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		cfg := testConfig()
		cfg.Tenants = []TenantConfig{
			{Name: "a", Budget: 512 * mb, Weight: 2},
			{Name: "b", Budget: 512 * mb, Weight: 1},
		}
		s := mustScheduler(t, cfg)
		for i := 0; i < 2; i++ {
			mustSubmit(t, s, smallStencil("a"))
			sh := smallStencil("b")
			sh.Kernel = "shift"
			mustSubmit(t, s, sh)
		}
		// Staggered arrivals: step a few windows between submissions.
		for i := 0; i < 5; i++ {
			s.Step()
		}
		mm := smallStencil("a")
		mm.Kernel = "matmul"
		mustSubmit(t, s, mm)
		if err := s.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		return signature(s)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}

func TestWRRAssignFollowsWeights(t *testing.T) {
	w := newWRR()
	ents := []laneEntity{{key: "a", weight: 3}, {key: "b", weight: 1}}
	totals := map[string]int{}
	for round := 0; round < 100; round++ {
		counts, total := w.assign(ents, 8)
		if total != 8 {
			t.Fatalf("total = %d, want 8", total)
		}
		if counts[0]+counts[1] != 8 {
			t.Fatalf("lane counts %v do not sum to 8", counts)
		}
		if counts[0] < 1 || counts[1] < 1 {
			t.Fatalf("floor violated: %v", counts)
		}
		totals["a"] += counts[0]
		totals["b"] += counts[1]
	}
	// 6 extra lanes per round at weights 3:1 -> 4.5:1.5 plus the
	// 1-lane floors: 5.5 vs 2.5 per round.
	if totals["a"] != 550 || totals["b"] != 250 {
		t.Fatalf("cumulative lanes = %v, want a=550 b=250", totals)
	}
}

func TestWRRFloorWhenOversubscribed(t *testing.T) {
	w := newWRR()
	var ents []laneEntity
	for i := 0; i < 12; i++ {
		ents = append(ents, laneEntity{key: fmt.Sprintf("t%d", i), weight: 1})
	}
	counts, total := w.assign(ents, 8)
	if total != 12 {
		t.Fatalf("total = %d, want 12 (floor oversubscribes the fabric)", total)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("entity %d got %d lanes, want exactly the floor", i, c)
		}
	}
}

// hogSpec is a staging-heavy session: the active set overflows the
// footprint, so the run is migration-bound.
func hogSpec(tenant string) WorkloadSpec {
	return WorkloadSpec{
		Tenant:     tenant,
		Kernel:     "stencil",
		Bytes:      768 * mb,
		Reduced:    256 * mb,
		Footprint:  160 * mb, // < reduced: continuous refetch
		Iterations: 2,
		Sweeps:     2,
	}
}

// isolationMakespan runs one small-tenant session against nHogs
// concurrent hog sessions and returns the small session's makespan.
func isolationMakespan(t *testing.T, fair bool, nHogs int) float64 {
	t.Helper()
	cfg := testConfig()
	cfg.Audit = false
	cfg.Fair = fair
	cfg.Tenants = []TenantConfig{
		{Name: "small", Budget: 256 * mb},
		{Name: "hog", Budget: gb},
	}
	s := mustScheduler(t, cfg)
	for i := 0; i < nHogs; i++ {
		mustSubmit(t, s, hogSpec("hog"))
	}
	small := mustSubmit(t, s, smallStencil("small"))
	if small.State != Running {
		t.Fatalf("small tenant queued behind hogs: %v (budgets must pre-admit it)", small.State)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if small.State != Done {
		t.Fatalf("small session = %v (err %q), want done", small.State, small.Err)
	}
	return float64(small.Makespan())
}

func TestFairSharingProtectsSmallTenant(t *testing.T) {
	alone := isolationMakespan(t, true, 0)
	fair := isolationMakespan(t, true, 4)
	unfair := isolationMakespan(t, false, 4)
	if fair >= unfair {
		t.Fatalf("fair makespan %.3f >= unfair %.3f: weighted-fair lanes did not protect the small tenant",
			fair, unfair)
	}
	// Equal weights, two tenants: the fair-share bound is 2x alone
	// (compute is unshared, staging at worst halves).
	if bound := 2.05 * alone; fair > bound {
		t.Fatalf("fair makespan %.3f exceeds fair-share bound %.3f (alone %.3f)", fair, bound, alone)
	}
}
