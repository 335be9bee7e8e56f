package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestAtInstantEndOrder checks that a hook runs once its instant has no
// event left, events scheduled by an earlier hook included, and before
// the clock moves on.
func TestAtInstantEndOrder(t *testing.T) {
	e := NewEngine(1)
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, e.Now())) }
	e.Schedule(1, func() {
		note("a")
		e.AtInstantEnd(func() {
			note("hook1")
			e.Schedule(e.Now(), func() { note("from-hook1") })
		})
		e.Schedule(e.Now(), func() {
			note("b")
			e.AtInstantEnd(func() { note("hook2") })
		})
	})
	e.Schedule(2, func() { note("c") })
	e.RunAll()
	want := []string{"a@1", "b@1", "hook1@1", "from-hook1@1", "hook2@1", "c@2"}
	if !slices.Equal(log, want) {
		t.Fatalf("order %q, want %q", log, want)
	}
}

// TestAtInstantEndBeforeReturn checks that Run and RunBefore run the
// last instant's hooks, and fire the events those schedule within their
// bound, before they return.
func TestAtInstantEndBeforeReturn(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(e *Engine)
		late Time // an event just past the bound
		end  Time // the clock when the call returns
	}{
		{"Run to a later bound", func(e *Engine) { e.Run(5) }, 6, 5},
		{"Run to the instant", func(e *Engine) { e.Run(1) }, 2, 1},
		{"RunBefore", func(e *Engine) { e.RunBefore(2) }, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			var log []string
			e.Schedule(1, func() {
				e.AtInstantEnd(func() {
					log = append(log, fmt.Sprintf("hook@%v", e.Now()))
					e.Schedule(e.Now(), func() { log = append(log, fmt.Sprintf("event@%v", e.Now())) })
				})
			})
			e.Schedule(c.late, func() { log = append(log, "late") })
			c.run(e)
			if want := []string{"hook@1", "event@1"}; !slices.Equal(log, want) {
				t.Fatalf("ran %q, want %q", log, want)
			}
			if e.Now() != c.end {
				t.Fatalf("clock %v after return, want %v", e.Now(), c.end)
			}
		})
	}
}

// TestAtInstantEndOutsideLoop checks that a hook registered outside Run
// and RunBefore runs at once.
func TestAtInstantEndOutsideLoop(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.AtInstantEnd(func() { ran = true })
	if !ran {
		t.Fatal("hook registered outside the loop did not run at once")
	}
}

// TestAtInstantEndEventsVisible checks that once Run or RunBefore
// returns, PendingEvents, PeekTime, Idle and the quiesce hook see the
// events the last instant's hook scheduled.
func TestAtInstantEndEventsVisible(t *testing.T) {
	for _, run := range []func(e *Engine){
		func(e *Engine) { e.Run(2) },
		func(e *Engine) { e.RunBefore(2) },
	} {
		e := NewEngine(1)
		quiesced := 0
		e.SetQuiesceHook(func() { quiesced++ })
		e.Schedule(1, func() {
			e.AtInstantEnd(func() { e.Schedule(3, func() {}) })
		})
		run(e)
		if n := e.PendingEvents(); n != 1 {
			t.Fatalf("PendingEvents = %d, want 1", n)
		}
		if at, ok := e.PeekTime(); !ok || at != 3 {
			t.Fatalf("PeekTime = %v, %v, want 3, true", at, ok)
		}
		if e.Idle() || quiesced != 0 {
			t.Fatalf("Idle %v, quiesce hook ran %d times: the hook's event went unseen", e.Idle(), quiesced)
		}
		e.RunAll()
		if quiesced != 1 {
			t.Fatalf("quiesce hook ran %d times after RunAll, want 1", quiesced)
		}
	}
}

// TestAtInstantEndAfterPanic checks that a body panic unwinding through
// Run leaves the engine usable: a hook registered after the recovery
// runs at once, and the hook the panic left pending runs at the next
// Run.
func TestAtInstantEndAfterPanic(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	pending := false
	e.Schedule(1, func() { e.AtInstantEnd(func() { pending = true }) })
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run did not re-panic the body panic")
			}
		}()
		e.RunAll()
	}()
	ran := false
	e.AtInstantEnd(func() { ran = true })
	if !ran {
		t.Fatal("after a recovered panic, a hook registered outside the loop was deferred")
	}
	if pending {
		t.Fatal("the hook left pending by the panic ran before the next Run")
	}
	e.RunAll()
	if !pending {
		t.Fatal("the hook left pending by the panic never ran")
	}
}

// TestAtInstantEndAllocs pins registering a hook inside the loop at zero
// allocations at steady state.
func TestAtInstantEndAllocs(t *testing.T) {
	e := NewEngine(1)
	hooks := 0
	hook := func() { hooks++ }
	var tick func()
	tick = func() {
		e.AtInstantEnd(hook)
		e.AtInstantEnd(hook)
		e.After(1, tick)
	}
	e.After(1, tick)
	e.Run(e.Now() + 1)
	if a := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 1) }); a != 0 {
		t.Fatalf("an instant registering two hooks allocates %v times, want 0", a)
	}
	if hooks != 2*102 {
		t.Fatalf("%d hooks ran over 102 instants, want %d", hooks, 2*102)
	}
}

// TestScheduleReserved checks that an event scheduled into a reserved
// slot fires in the order of its reservation among same-time events,
// wherever they are queued, and that misuse panics.
func TestScheduleReserved(t *testing.T) {
	e := NewEngine(1)
	var log []string
	note := func(what string) func() { return func() { log = append(log, what) } }
	var m Mutex
	m.AcquireCost = 1
	e.Schedule(0, func() {
		seq := e.ReserveSeq()
		e.Schedule(1, note("heap"))
		e.Spawn("charged", func(p *Proc) {
			m.Lock(p) // wakes at 1 on the lock-charge FIFO
			log = append(log, "charge")
			m.Unlock(p)
		})
		e.AtInstantEnd(func() { e.ScheduleReserved(1, seq, note("reserved")) })
	})
	e.RunAll()
	if want := []string{"reserved", "heap", "charge"}; !slices.Equal(log, want) {
		t.Fatalf("order %q, want %q", log, want)
	}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"unreserved seq", func() { e.ScheduleReserved(e.Now()+1, e.seq, func() {}) }},
		{"time before now", func() { e.ScheduleReserved(e.Now()-1, e.ReserveSeq(), func() {}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleReserved with %s did not panic", c.name)
				}
			}()
			c.call()
		}()
	}
}
