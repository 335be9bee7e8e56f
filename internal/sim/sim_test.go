package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(2.0, func() { got = append(got, 2) })
	e.Schedule(1.0, func() { got = append(got, 1) })
	e.Schedule(3.0, func() { got = append(got, 3) })
	end := e.RunAll()
	if end != 3.0 {
		t.Fatalf("end time = %v, want 3.0", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5.0, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of insertion order: %v", got)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.RunAll()
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancelEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.Schedule(1, func() { fired = true })
	h.Cancel()
	e.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
	if !h.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, ts := range []Time{1, 2, 3, 4} {
		ts := ts
		e.Schedule(ts, func() { fired = append(fired, ts) })
	}
	e.Run(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	e.RunAll()
	if len(fired) != 4 {
		t.Fatalf("fired %v after RunAll, want all 4", fired)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
	})
	e.RunAll()
	if wake != 2.5 {
		t.Fatalf("woke at %v, want 2.5", wake)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d, want 0", n)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine(1)
	var ts []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			ts = append(ts, p.Now())
		}
	})
	e.RunAll()
	want := []Time{1, 2, 3}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("sleep times %v, want %v", ts, want)
		}
	}
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Time(i+1) * 0.5
			e.Spawn(name, func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%.2f", p.Name(), p.Now()))
				}
			})
		}
		e.RunAll()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("lengths %d vs %d, want 12", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSuspendResume(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		order = append(order, "wait-start")
		p.Suspend()
		order = append(order, fmt.Sprintf("resumed@%v", p.Now()))
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(3)
		waiter.Resume()
	})
	e.RunAll()
	if len(order) != 2 || order[1] != "resumed@3" {
		t.Fatalf("order = %v", order)
	}
}

func TestSpawnChild(t *testing.T) {
	e := NewEngine(1)
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Spawn("child", func(q *Proc) {
			q.Sleep(1)
			childRan = true
		})
		p.Sleep(2)
	})
	e.RunAll()
	if !childRan {
		t.Error("child did not run")
	}
}

func TestCloseReapsBlockedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	e.Spawn("stuck", func(p *Proc) {
		p.Suspend() // never resumed
	})
	e.Spawn("finished", func(p *Proc) {}) // leaves its coroutine idle
	e.RunAll()
	if n := e.LiveProcs(); n != 1 {
		t.Fatalf("LiveProcs = %d, want 1 blocked", n)
	}
	names := e.BlockedProcNames()
	if len(names) != 1 || names[0] != "stuck" {
		t.Fatalf("BlockedProcNames = %v", names)
	}
	ran := false
	e.Spawn("never-granted", func(p *Proc) { ran = true })
	e.Close()
	if ran {
		t.Error("Close ran the body of a process that was never granted")
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", n)
	}
	// Each coroutine runs on a goroutine of its own, so a process Close
	// failed to reap would show up here as a leaked goroutine.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("NumGoroutine after Close = %d, want at most %d as before Spawn", n, before)
	}
}

// TestSpawnReusesCoroutine checks that a process started after another
// finished runs on the finished one's coroutine instead of a new one.
func TestSpawnReusesCoroutine(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	var cos []*coroutine
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			var wg WaitGroup
			wg.Add(1)
			p.Spawn("child", func(q *Proc) {
				cos = append(cos, q.co)
				wg.Done()
			})
			wg.Wait(p)
		}
	})
	e.RunAll()
	if len(cos) != 3 || cos[1] != cos[0] || cos[2] != cos[0] {
		t.Fatalf("children ran on coroutines %p, want one reused throughout", cos)
	}
}

// TestFinishedProcReleasesBody checks that a Proc kept past the end of
// its body does not keep the body's closure, or what it captured, alive.
func TestFinishedProcReleasesBody(t *testing.T) {
	e := NewEngine(1)
	freed := make(chan struct{})
	p := spawnWithPayload(e, freed)
	e.RunAll()
	for deadline := time.Now().Add(time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(p)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a finished process still holds what its body captured")
		}
	}
}

// spawnWithPayload spawns a process whose body captures an object that
// closes freed once it is garbage collected.
func spawnWithPayload(e *Engine, freed chan struct{}) *Proc {
	payload := new([64]byte)
	runtime.SetFinalizer(payload, func(*[64]byte) { close(freed) })
	return e.Spawn("short", func(p *Proc) { p.Sleep(Time(payload[0])) })
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	e.Spawn("bystander", func(p *Proc) { p.Suspend() })
	r := func() (r interface{}) {
		defer func() { r = recover() }()
		e.RunAll()
		return nil
	}()
	// A plain string: callers type-assert it (core's HBM budget test).
	const want = `sim: process "bomb" panicked: boom`
	if s, ok := r.(string); !ok || s != want {
		t.Fatalf("Run panicked with %#v, want the string %q", r, want)
	}
	e.Close()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", n)
	}
}

func TestProcGoexitPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("quitter", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.RunAll()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned normally after a process called runtime.Goexit")
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d, want 0", n)
	}
}

// TestWakeAllocs pins the wake path at zero allocations: Sleep, Resume
// and a charged lock schedule callbacks bound once at Spawn, and the
// same-instant and lock-charge FIFOs reuse their slots.
func TestWakeAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	m := Mutex{AcquireCost: 0.5}
	e.Spawn("locker", func(p *Proc) {
		for {
			m.Lock(p)
			m.Unlock(p)
		}
	})
	waiter := e.Spawn("waiter", func(p *Proc) {
		for {
			p.Suspend()
		}
	})
	e.Run(0)
	if a := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 1) }); a != 0 {
		t.Errorf("Sleep and charged Lock/Unlock round trips: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		waiter.Resume()
		e.Run(e.Now())
	}); a != 0 {
		t.Errorf("Suspend/Resume round trip: %v allocs, want 0", a)
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.RunAll()
	// a starts first, yields; b must run before a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineRandDeterministic(t *testing.T) {
	a, b := NewEngine(5), NewEngine(5)
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed engines disagree")
		}
	}
	if NewEngine(1).Rand().Int63() == NewEngine(2).Rand().Int63() {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestEngineIdle(t *testing.T) {
	e := NewEngine(1)
	if !e.Idle() {
		t.Fatal("fresh engine not idle")
	}
	e.Schedule(1, func() {})
	if e.Idle() {
		t.Fatal("engine with pending event is idle")
	}
	e.RunAll()
	if !e.Idle() {
		t.Fatal("drained engine not idle")
	}
}

func TestProcIdentity(t *testing.T) {
	e := NewEngine(1)
	var p1, p2 *Proc
	p1 = e.Spawn("alpha", func(p *Proc) {
		if p != p1 || p.Name() != "alpha" || p.Engine() != e {
			t.Error("proc identity broken")
		}
	})
	p2 = e.Spawn("beta", func(p *Proc) {})
	if p1.ID() == p2.ID() {
		t.Fatal("proc ids must be unique")
	}
	e.RunAll()
}

func TestNilEventHandleCancelled(t *testing.T) {
	var h *EventHandle
	if !h.Cancelled() {
		t.Fatal("nil handle should read as cancelled")
	}
	h.Cancel() // must not panic
}
