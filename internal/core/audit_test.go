package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// TestSingleIOThreadSweep is the X3 regression for the lost-wakeup bug:
// with IOThreads > 1 all threads shared one work flag, so a thread that
// consumed a kick on behalf of a sibling mid-pass could strand the
// sibling's pushed-back task in a wait queue forever. The generation
// counter makes every kick visible to every thread. Heavy capacity
// pressure (1 GB blocks against a 3 GB budget) maximises concurrent
// push-back/kick interleavings.
func TestSingleIOThreadSweep(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 6, 8} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			opts := DefaultOptions(SingleIO)
			opts.IOThreads = threads
			env := newEnv(t, 4, opts)
			app := buildApp(env, 12, 1*gb, 3, nil)
			app.run(t)
			assertQuiescent(t, env)
			if env.rt.Stats.TasksExecuted != 12*3 {
				t.Fatalf("executed %d tasks, want 36", env.rt.Stats.TasksExecuted)
			}
		})
	}
}

// TestSingleIOThreadSweepSharedQueue covers the X2+X3 cross product:
// many IO threads round-robining a single shared wait queue.
func TestSingleIOThreadSweepSharedQueue(t *testing.T) {
	opts := DefaultOptions(SingleIO)
	opts.IOThreads = 4
	opts.SharedWaitQueue = true
	env := newEnv(t, 4, opts)
	app := buildApp(env, 12, 1*gb, 3, nil)
	app.run(t)
	assertQuiescent(t, env)
}

// TestPrefetchDepthBoundHeld asserts, via the auditor, that the MultiIO
// in-flight bound is never exceeded — the bug was complete()
// decrementing inflight outside ioMu while ioLoop read it against the
// bound.
func TestPrefetchDepthBoundHeld(t *testing.T) {
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			opts := DefaultOptions(MultiIO)
			opts.PrefetchDepth = depth
			env := newEnv(t, 4, opts)
			app := buildApp(env, 12, 512*1024*1024, 3, nil)
			app.run(t)
			assertQuiescent(t, env)
			snap, ok := env.mg.AuditSnapshot()
			if !ok {
				t.Fatal("auditor not enabled")
			}
			for pe, peak := range snap.InflightPeak {
				if peak > depth {
					t.Fatalf("PE %d staged %d tasks in flight, bound %d", pe, peak, depth)
				}
			}
			for _, v := range snap.Violations {
				if v.Rule == "prefetch-depth" {
					t.Fatalf("auditor saw bound violation: %v", v)
				}
			}
		})
	}
}

// TestAuditorCatchesSeededViolation proves the oracle actually fires:
// corrupt the reservation counter behind the auditor's back and the
// ledger cross-check must report it.
func TestAuditorCatchesSeededViolation(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(SingleIO))
	env.mg.reserved += 1 * gb // deliberate corruption
	env.mg.aud.CheckNow()
	aud := env.mg.Auditor()
	if aud.Ok() {
		t.Fatal("auditor missed a corrupted reservation counter")
	}
	var found bool
	for _, v := range aud.Violations() {
		if v.Rule == "reservation-ledger" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a reservation-ledger violation, got %v", aud.Violations())
	}
	env.mg.reserved -= 1 * gb // restore so Cleanup paths stay sane
}

// TestAuditorCatchesCapacityViolation seeds the other invariant:
// shadow and real reservation agree but together with residency they
// overshoot the budget.
func TestAuditorCatchesCapacityViolation(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(SingleIO))
	env.mg.reserved += 10 * gb
	env.mg.aud.Reserve(10 * gb) // ledger agrees; capacity cannot
	aud := env.mg.Auditor()
	if aud.Ok() {
		t.Fatal("auditor missed a budget overshoot")
	}
	var found bool
	for _, v := range aud.Violations() {
		if v.Rule == "capacity" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a capacity violation, got %v", aud.Violations())
	}
}

// TestWatchdogReportsStrandedTask plants a task in a wait queue without
// the kick that should accompany it — exactly the state a lost wakeup
// leaves behind — and checks the quiesce watchdog turns it into a
// diagnostic naming the task and its blocking handle.
func TestWatchdogReportsStrandedTask(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(SingleIO))
	h := env.mg.NewHandle("stuckblk", 1*gb)
	arr := env.rt.NewArray("a", 1, func(i int) charm.Chare { return nil }, nil)
	kern := arr.Register(charm.Entry{
		Name:     "kern",
		Prefetch: true,
		Deps: func(el *charm.Element, msg *charm.Message) []charm.DataDep {
			return []charm.DataDep{{Handle: h, Mode: charm.ReadWrite}}
		},
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {},
	})
	strat := env.mg.strat.(*singleIO)
	env.e.Spawn("planter", func(p *sim.Proc) {
		task := &charm.Task{Elem: arr.Elem(0), Entry: kern, Msg: &charm.Message{}}
		task.Deps = kern.Deps(arr.Elem(0), task.Msg)
		ot := newOOCTask(env.mg, env.rt.PE(0), task)
		strat.wqs[0].push(p, ot) // no kick: simulated lost wakeup
	})
	env.e.RunAll()

	aud := env.mg.Auditor()
	report := aud.StallReport()
	if report == nil {
		t.Fatal("watchdog did not report the stranded task")
	}
	if len(report.Stuck) != 1 {
		t.Fatalf("stuck tasks = %d, want 1", len(report.Stuck))
	}
	st := report.Stuck[0]
	if st.PE != 0 || len(st.Deps) != 1 || st.Deps[0].Name != "stuckblk" {
		t.Fatalf("report misnames the stuck task: %+v", st)
	}
	if !strings.Contains(report.String(), "stuckblk") {
		t.Fatalf("rendered report omits the blocking handle:\n%s", report)
	}
	if aud.Ok() {
		t.Fatal("a stall must count as a violation")
	}
}

// TestAuditSnapshotJSON exercises the metrics export path end to end:
// run a real workload, snapshot, marshal, unmarshal, sanity-check.
func TestAuditSnapshotJSON(t *testing.T) {
	env := newEnv(t, 4, DefaultOptions(MultiIO))
	app := buildApp(env, 12, 512*1024*1024, 3, nil)
	app.run(t)
	assertQuiescent(t, env)

	snap, ok := env.mg.AuditSnapshot()
	if !ok {
		t.Fatal("auditor not enabled")
	}
	if snap.Mode != MultiIO.String() {
		t.Fatalf("mode %q", snap.Mode)
	}
	if snap.Fetches == 0 || snap.Evictions == 0 {
		t.Fatal("snapshot missing movement counts")
	}
	if snap.HBMHighWater <= 0 || snap.HBMHighWater > snap.HBMBudget {
		t.Fatalf("high water %d outside (0, budget %d]", snap.HBMHighWater, snap.HBMBudget)
	}
	if snap.FetchHist.N != snap.Fetches {
		t.Fatalf("fetch histogram has %d samples for %d fetches", snap.FetchHist.N, snap.Fetches)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]interface{}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mode", "hbm_high_water_bytes", "fetch_hist", "queue_depth_peak"} {
		if _, present := back[key]; !present {
			t.Fatalf("snapshot JSON missing %q: %s", key, raw)
		}
	}
}

// TestAuditDisabledIsInert verifies the nil-auditor fast path: no
// auditor object, no snapshot, identical behaviour.
func TestAuditDisabledIsInert(t *testing.T) {
	e := sim.NewEngine(42)
	m := tinySpec().MustBuild(e)
	rt := charm.NewRuntime(m, 2, charm.DefaultParams())
	mg := NewManager(rt, DefaultOptions(MultiIO))
	t.Cleanup(e.Close)
	if mg.Auditor() != nil {
		t.Fatal("auditor created without opts.Audit")
	}
	if _, ok := mg.AuditSnapshot(); ok {
		t.Fatal("snapshot available without auditing")
	}
	env := &env{e: e, m: m, rt: rt, mg: mg}
	app := buildApp(env, 4, 512*1024*1024, 2, nil)
	app.run(t)
}
