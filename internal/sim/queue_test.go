package sim

import (
	"math/rand"
	"testing"
)

// TestMergedEventOrder is a randomized property test of the event
// queues: the heap, the same-instant FIFO and the lock-charge FIFOs
// must together fire events in exactly (t, seq) order.
//
// Recorded callbacks schedule more recorded events by every route —
// Schedule at now and later, After, lock charges of two different
// values, and a slot reserved at once and scheduled at the instant's
// end — and cancel random earlier ones wherever they sit. Processes
// meanwhile take charged locks of the same two values, sleep (zero
// sleeps included) and try locks, so process wakes interleave with the
// recorded events on the same queues. The driver runs the engine in
// random Run(until) and RunBefore windows and checks, after every
// window, that EventStats and PendingEvents agree. At the end every
// uncancelled recorded event must have fired exactly once, none of the
// cancelled ones, and the recorded (t, seq) sequence must be strictly
// increasing.
func TestMergedEventOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkMergedOrder(t, seed)
	}
}

func checkMergedOrder(t *testing.T, seed int64) {
	const tick = 0.25 // every time is on this grid, so ties across queues are common
	charges := [2]Time{tick, 2 * tick}
	e := NewEngine(seed)
	defer e.Close()
	rng := rand.New(rand.NewSource(seed))

	type rec struct {
		at  Time
		seq int64
	}
	type tracked struct {
		h   EventHandle
		seq int64
	}
	var (
		log       []rec
		events    []tracked
		fired     = map[int64]int{}
		cancelled = map[int64]bool{}
		budget    = 2000
	)
	// cancel cancels a random recorded event, wherever it is queued; it
	// counts as cancelled only if it had not fired yet.
	cancel := func() {
		ev := events[rng.Intn(len(events))]
		if fired[ev.seq] == 0 {
			cancelled[ev.seq] = true
		}
		ev.h.Cancel()
	}
	var add func()
	add = func() {
		if budget == 0 {
			return
		}
		budget--
		seq := e.seq
		var at Time
		fn := func() {
			if e.Now() != at {
				t.Errorf("seed %d: event %d scheduled for %v fired at %v", seed, seq, at, e.Now())
			}
			log = append(log, rec{e.Now(), seq})
			fired[seq]++
			for n := rng.Intn(3); n > 0; n-- {
				add()
			}
			if rng.Intn(3) == 0 {
				cancel()
			}
		}
		var h EventHandle
		switch rng.Intn(6) {
		case 5:
			// Reserve the slot now (seq, read above) and schedule
			// into it once the instant ends, as memsim schedules its
			// completions.
			e.ReserveSeq()
			at = e.Now() + Time(1+rng.Intn(4))*tick
			e.AtInstantEnd(func() {
				events = append(events, tracked{e.ScheduleReserved(at, seq, fn), seq})
			})
			return
		case 0:
			at = e.Now()
			h = e.Schedule(at, fn)
		case 1:
			at = e.Now() + Time(1+rng.Intn(4))*tick
			h = e.Schedule(at, fn)
		case 2:
			d := Time(rng.Intn(4)) * tick
			at = e.Now() + d
			h = e.After(d, fn)
		default:
			d := charges[rng.Intn(2)]
			at = e.Now() + d
			h = e.scheduleCharge(d, fn)
		}
		if h.ev.seq != seq {
			t.Fatalf("seed %d: event got seq %d, want %d", seed, h.ev.seq, seq)
		}
		events = append(events, tracked{h, seq})
	}

	locks := [2]Mutex{{AcquireCost: charges[0]}, {AcquireCost: charges[1]}}
	for i := 0; i < 3; i++ {
		e.Spawn("worker", func(p *Proc) {
			for n := 0; n < 40; n++ {
				m := &locks[rng.Intn(2)]
				if rng.Intn(4) == 0 {
					// Take m only if it is free: the charge
					// is that of any uncontended Lock.
					if !m.Locked() {
						m.Lock(p)
						m.Unlock(p)
					}
					continue
				}
				free, before := !m.Locked(), p.Now()
				m.Lock(p)
				if free && p.Now() != before+m.AcquireCost {
					t.Errorf("seed %d: uncontended lock took %v, want %v", seed, p.Now()-before, m.AcquireCost)
				}
				d := Time(rng.Intn(3)) * tick
				before = p.Now()
				p.Sleep(d)
				if p.Now() != before+d {
					t.Errorf("seed %d: Sleep(%v) took %v", seed, d, p.Now()-before)
				}
				m.Unlock(p)
			}
		})
	}
	for i := 0; i < 20; i++ {
		add()
	}

	consistent := func(where string) {
		st := e.EventStats()
		if n := e.PendingEvents(); int64(n) != st.Scheduled-st.Fired-st.Cancelled {
			t.Fatalf("seed %d %s: PendingEvents = %d, want Scheduled-Fired-Cancelled = %d (%+v)",
				seed, where, n, st.Scheduled-st.Fired-st.Cancelled, st)
		}
		if e.Idle() != (e.PendingEvents() == 0) {
			t.Fatalf("seed %d %s: Idle() = %v with %d pending", seed, where, e.Idle(), e.PendingEvents())
		}
	}
	for !e.Idle() {
		horizon := e.Now() + Time(rng.Intn(6))*tick
		if rng.Intn(2) == 0 {
			e.Run(horizon)
			if next, ok := e.PeekTime(); ok && next <= horizon {
				t.Fatalf("seed %d: Run(%v) left an event at %v", seed, horizon, next)
			}
		} else {
			e.RunBefore(horizon)
			if next, ok := e.PeekTime(); ok && next < horizon {
				t.Fatalf("seed %d: RunBefore(%v) left an event at %v", seed, horizon, next)
			}
		}
		consistent("after a window")
		// Schedule from outside the engine loop too, at the window's
		// end instant and later.
		if rng.Intn(2) == 0 {
			add()
		}
		if rng.Intn(2) == 0 {
			cancel()
		}
		consistent("after outside scheduling")
	}

	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if !(a.at < b.at || (a.at == b.at && a.seq < b.seq)) {
			t.Fatalf("seed %d: event (%v, %d) fired after (%v, %d)", seed, b.at, b.seq, a.at, a.seq)
		}
	}
	var ncancelled int64
	for _, ev := range events {
		switch {
		case cancelled[ev.seq] && fired[ev.seq] != 0:
			t.Errorf("seed %d: cancelled event %d fired", seed, ev.seq)
		case !cancelled[ev.seq] && fired[ev.seq] != 1:
			t.Errorf("seed %d: event %d fired %d times, want once", seed, ev.seq, fired[ev.seq])
		}
		if cancelled[ev.seq] {
			ncancelled++
		}
	}
	st := e.EventStats()
	if st.Cancelled != ncancelled {
		t.Errorf("seed %d: EventStats.Cancelled = %d, want %d", seed, st.Cancelled, ncancelled)
	}
	if st.Fired != st.Scheduled-st.Cancelled {
		t.Errorf("seed %d: drained engine fired %d of %d scheduled, %d cancelled", seed, st.Fired, st.Scheduled, st.Cancelled)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("seed %d: %d workers still parked", seed, e.LiveProcs())
	}
}
