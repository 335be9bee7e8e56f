package serve

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/topology"
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

func TestSessionLifecycleAllKernels(t *testing.T) {
	for _, kernel := range []string{"stencil", "shift", "matmul"} {
		t.Run(kernel, func(t *testing.T) {
			s := mustScheduler(t, testConfig())
			spec := smallStencil("acme")
			spec.Kernel = kernel
			sess := mustSubmit(t, s, spec)
			if sess.State != Running {
				t.Fatalf("state after submit with free budget = %v, want running", sess.State)
			}
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

// TestDegenerateMatMulFails: a matmul whose blocks would be zero bytes
// fails its session with the reason instead of panicking in the
// scheduler, which would leave the server lock held.
func TestDegenerateMatMulFails(t *testing.T) {
	s := mustScheduler(t, testConfig())
	sess := mustSubmit(t, s, WorkloadSpec{Tenant: "acme", Kernel: "matmul", Bytes: 1, Footprint: 1})
	if sess.State != Failed || !strings.Contains(sess.Err, "under one byte") {
		t.Fatalf("session %v (%q), want failed for its empty blocks", sess.State, sess.Err)
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
