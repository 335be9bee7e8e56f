package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
)

// TestCancelReclaimsHeapSlot is the regression test for the unbounded
// heap bug: Cancel used to mark the event dead but leave it in the heap,
// so a workload scheduling and cancelling timeouts (the condvar-timeout
// pattern) grew the heap without bound. Cancelled events must leave the
// heap immediately.
func TestCancelReclaimsHeapSlot(t *testing.T) {
	e := NewEngine(1)
	const rounds = 10_000
	var fired int
	var tick func()
	remaining := rounds
	tick = func() {
		// Guard timeout far in the future, cancelled before the next
		// tick fires — exactly the Cond-wait-with-timeout shape.
		guard := e.After(1e6, func() { t.Error("cancelled guard fired") })
		fired++
		remaining--
		if remaining > 0 {
			e.After(1e-6, tick)
		}
		guard.Cancel()
	}
	e.After(0, tick)
	e.RunAll()
	if fired != rounds {
		t.Fatalf("fired %d ticks, want %d", fired, rounds)
	}
	if n := e.PendingEvents(); n != 0 {
		t.Fatalf("PendingEvents = %d after drain, want 0", n)
	}
	st := e.EventStats()
	if st.Cancelled != rounds {
		t.Fatalf("Cancelled = %d, want %d", st.Cancelled, rounds)
	}
	// The free list bounds live event objects: after warm-up every
	// Schedule should be served by reuse, not allocation.
	if st.Reused < st.Scheduled-64 {
		t.Fatalf("Reused = %d of %d scheduled; pool not recycling", st.Reused, st.Scheduled)
	}
}

// TestHeapStaysBounded asserts the heap length never exceeds the number
// of genuinely pending events even while cancels churn.
func TestHeapStaysBounded(t *testing.T) {
	e := NewEngine(1)
	const lanes = 8
	const steps = 2_000
	guards := make([]EventHandle, lanes)
	maxHeap := 0
	remaining := steps
	var tick func(lane int)
	tick = func(lane int) {
		guards[lane].Cancel()
		guards[lane] = e.After(1e3, func() {})
		remaining--
		if remaining > 0 {
			lane := lane
			e.After(1e-6, func() { tick(lane) })
		}
		if n := e.PendingEvents(); n > maxHeap {
			maxHeap = n
		}
	}
	for i := 0; i < lanes; i++ {
		i := i
		e.After(0, func() { tick(i) })
	}
	e.RunAll()
	// At any instant there are at most lanes pending ticks + lanes live
	// guards (+ a small constant); anything near `steps` means dead
	// events are accumulating again.
	if maxHeap > 4*lanes {
		t.Fatalf("heap grew to %d entries with only %d lanes; cancelled events are lingering", maxHeap, lanes)
	}
}

// TestGuardWorkloadEventStats pins the engine's event counts on the
// 64-lane guard workload: per task, cancel the lane's previous guard,
// schedule the lane's next work event and a new far-future guard. Each
// task is one Schedule+Cancel pair plus its work event, so a change to
// how Schedule, Cancel or the free list count or recycle events shows
// up here. BenchmarkScheduleCancel times the same pattern on one lane.
func TestGuardWorkloadEventStats(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tasks int64
		want  EventStats
	}{
		// Fired is every work event plus each lane's last guard.
		{10_000, 9_984, EventStats{Scheduled: 19_968, Fired: 10_048, Cancelled: 9_920, Reused: 19_840}},
		{100_000, 99_968, EventStats{Scheduled: 199_936, Fired: 100_032, Cancelled: 99_904, Reused: 199_808}},
		{1_000_000, 1_000_000, EventStats{Scheduled: 2_000_000, Fired: 1_000_064, Cancelled: 999_936, Reused: 1_999_872}},
	} {
		tasks, st := runGuardWorkload(tc.n)
		if tasks != tc.tasks || st != tc.want {
			t.Errorf("%d tasks requested: ran %d with %+v, want %d with %+v", tc.n, tasks, st, tc.tasks, tc.want)
		}
	}
}

// runGuardWorkload runs n/64 tasks on each of 64 lanes and returns the
// task count and the engine's event counts.
func runGuardWorkload(n int) (int64, EventStats) {
	e := NewEngine(1)
	defer e.Close()
	const lanes = 64
	const period = 1e-6
	const guardDelay = 1e3
	guards := make([]EventHandle, lanes)
	remaining := make([]int, lanes)
	for i := range remaining {
		remaining[i] = n / lanes
	}
	var tasks int64
	var step func(lane int)
	step = func(lane int) {
		guards[lane].Cancel()
		tasks++
		remaining[lane]--
		if remaining[lane] > 0 {
			e.After(period, func() { step(lane) })
		}
		guards[lane] = e.After(guardDelay, func() {})
	}
	for i := 0; i < lanes; i++ {
		lane := i
		e.After(period, func() { step(lane) })
	}
	e.RunAll()
	return tasks, e.EventStats()
}

// TestCancelRandomizedOrdering drives the intrusive heap's remove path
// hard: schedule events at pseudo-random times, cancel a deterministic
// subset, and check the survivors fire in exactly (t, seq) order.
func TestCancelRandomizedOrdering(t *testing.T) {
	e := NewEngine(42)
	rng := e.Rand()
	type rec struct {
		at  Time
		seq int
	}
	var want []rec
	var got []rec
	handles := make([]EventHandle, 0, 500)
	times := make([]Time, 0, 500)
	for i := 0; i < 500; i++ {
		i := i
		at := Time(rng.Intn(50)) * 0.5
		handles = append(handles, e.Schedule(at, func() { got = append(got, rec{at, i}) }))
		times = append(times, at)
	}
	for i := range handles {
		if i%3 == 0 {
			handles[i].Cancel()
		} else {
			want = append(want, rec{times[i], i})
		}
	}
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].at != want[b].at {
			return want[a].at < want[b].at
		}
		return want[a].seq < want[b].seq
	})
	e.RunAll()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCancelAfterFire: cancelling a fired event is a no-op even when the
// underlying object has been recycled by a later Schedule.
func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	h1 := e.Schedule(1, func() {})
	e.RunAll()
	// Recycle the object h1 pointed at.
	fired := false
	h2 := e.Schedule(2, func() { fired = true })
	h1.Cancel() // stale handle: must not disturb h2's event
	e.RunAll()
	if !fired {
		t.Fatal("stale Cancel cancelled a recycled event")
	}
	if h2.Cancelled() {
		t.Fatal("h2 reads cancelled")
	}
	if !h1.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel on fired handle")
	}
}

// TestDoubleCancel: cancelling twice releases the event only once (a
// double release would corrupt the free list / double-fire on reuse).
func TestDoubleCancel(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(1, func() { t.Error("cancelled event fired") })
	h.Cancel()
	h.Cancel()
	survivors := 0
	e.Schedule(2, func() { survivors++ })
	e.Schedule(3, func() { survivors++ })
	e.RunAll()
	if survivors != 2 {
		t.Fatalf("survivors = %d, want 2", survivors)
	}
}

// TestRunAdvancesClockToUntil pins the Run(until) contract: when Run
// stops short of a finite until (future event or drained queue), the
// clock lands on until, so a follow-up After(d) means "d after until".
func TestRunAdvancesClockToUntil(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	e.Schedule(10, func() {})
	if end := e.Run(2.5); end != 2.5 {
		t.Fatalf("Run(2.5) = %v, want 2.5 (stop on future event)", end)
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now = %v after Run(2.5), want 2.5", e.Now())
	}
	var firedAt Time
	e.After(1, func() { firedAt = e.Now() })
	e.Run(4)
	if firedAt != 3.5 {
		t.Fatalf("After(1) from Run-advanced clock fired at %v, want 3.5", firedAt)
	}
	if e.Now() != 4 {
		t.Fatalf("Now = %v after Run(4) draining the near queue, want 4 (drained-queue advance)", e.Now())
	}
	// RunAll must NOT advance to Infinity.
	e.RunAll()
	if e.Now() != 10 {
		t.Fatalf("Now = %v after RunAll, want 10 (last event, not Infinity)", e.Now())
	}
}

// TestRunBeforeStrictHorizon: RunBefore fires strictly-earlier events
// only and leaves the clock on the last fired event.
func TestRunBeforeStrictHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, ts := range []Time{1, 2, 3} {
		ts := ts
		e.Schedule(ts, func() { fired = append(fired, ts) })
	}
	e.RunBefore(2)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("RunBefore(2) fired %v, want [1] (t=2 is excluded)", fired)
	}
	if e.Now() != 1 {
		t.Fatalf("Now = %v after RunBefore(2), want 1 (no clock advance)", e.Now())
	}
	if ts, ok := e.PeekTime(); !ok || ts != 2 {
		t.Fatalf("PeekTime = %v,%v, want 2,true", ts, ok)
	}
	e.RunAll()
	if len(fired) != 3 {
		t.Fatalf("fired %v after RunAll", fired)
	}
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime ok on drained engine")
	}
}

// TestLoopYields: Run, RunAll and RunBefore each yield to the Go
// scheduler while they fire events, so at GOMAXPROCS=1 a goroutine
// started just before a run of 4 × yieldEvery events runs before the
// run ends, as the garbage collector's mark worker must.
func TestLoopYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 4 * yieldEvery
	for _, tc := range []struct {
		name string
		run  func(e *Engine)
	}{
		{"Run", func(e *Engine) { e.Run(n) }},
		{"RunAll", func(e *Engine) { e.RunAll() }},
		{"RunBefore", func(e *Engine) { e.RunBefore(n + 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			defer e.Close()
			var started atomic.Bool
			seen := false
			see := func() { seen = seen || started.Load() }
			for i := 1; i <= n; i++ {
				e.Schedule(Time(i), see)
			}
			// A collection during the run could schedule the
			// goroutine without any yield: start with none due.
			runtime.GC()
			go started.Store(true)
			tc.run(e)
			if e.EventStats().Fired != n {
				t.Fatalf("%s fired %d events, want %d", tc.name, e.EventStats().Fired, n)
			}
			if !seen {
				t.Fatalf("a goroutine started before %s's %d events did not run during them", tc.name, n)
			}
		})
	}
}

// TestPoolPreservesDeterminism: heavy schedule/cancel churn through the
// pool must not perturb ordering — two identical runs produce identical
// logs.
func TestPoolPreservesDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(9)
		var log []string
		for i := 0; i < 200; i++ {
			i := i
			h := e.Schedule(Time(i%7)+0.25, func() { log = append(log, fmt.Sprintf("a%d", i)) })
			if i%2 == 0 {
				h.Cancel()
			}
			e.Schedule(Time(i%5)+0.5, func() { log = append(log, fmt.Sprintf("b%d", i)) })
		}
		e.RunAll()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
