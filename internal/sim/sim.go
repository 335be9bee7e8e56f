// Package sim implements a deterministic discrete-event simulation engine
// with coroutine-style processes and virtual-time synchronisation
// primitives (Mutex, Cond, Semaphore, WaitGroup).
//
// The engine executes exactly one process at a time and orders
// same-timestamp events by insertion sequence, so a simulation run is a
// pure function of its inputs: re-running any experiment yields identical
// numbers. This is the substrate on which the heterogeneous-memory model
// (internal/memsim), the Charm-like runtime (internal/charm) and the
// prefetch/evict strategies (internal/core) execute.
//
// Processes are iter.Pull coroutines. An event callback resumes a
// process by calling its next function; the process runs until it parks
// (Sleep, lock wait, condition wait, ...) by calling its yield, and
// control returns to that callback. A switch goes straight from one
// coroutine to the other, with no trip through the Go scheduler and no
// channel. No two processes ever run concurrently, so simulation state
// needs no host-level locking. A panic or runtime.Goexit in a process
// body surfaces on the goroutine that called Run.
//
// The hot path is allocation-free at steady state: fired and cancelled
// events return to a free list and are reused by later Schedule calls
// (generation counters keep stale handles harmless), the event heap is
// intrusive (each event knows its own heap slot, so Cancel removes it in
// O(log n) instead of leaving a dead entry behind), processes live in a
// dense slice indexed by pid rather than a map, and each process binds
// its wake callbacks once at Spawn, so waking it allocates nothing.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Time is a point in virtual time, in seconds. Durations are plain
// float64 seconds as well.
type Time = float64

// Infinity is a time later than any event the engine will ever execute.
const Infinity Time = math.MaxFloat64

// event is a scheduled callback. Events with equal timestamps fire in
// insertion (seq) order, which is what makes runs deterministic. Event
// objects are pooled: gen increments each time the object is released
// (fired or cancelled), invalidating any EventHandle minted for a
// previous incarnation; idx is the object's current slot in the heap
// (-1 when not queued), maintained by every sift so cancellation can
// remove the entry directly.
type event struct {
	t   Time
	seq int64
	fn  func()
	idx int
	gen uint64
}

// eventHeap is a binary min-heap ordered by (t, seq). The sift routines
// are hand-rolled (rather than container/heap) so they can maintain the
// intrusive idx field and skip interface dispatch on the hot path.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if p.t < ev.t || (p.t == ev.t && p.seq < ev.seq) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		c := h[child]
		if ev.t < c.t || (ev.t == c.t && ev.seq < c.seq) {
			break
		}
		h[i] = c
		c.idx = i
		i = child
	}
	h[i] = ev
	ev.idx = i
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	ev.idx = len(*h) - 1
	h.up(ev.idx)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old)
	ev := old[0]
	last := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		old[0] = last
		(*h).down(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes the event at slot i (used by Cancel).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old)
	ev := old[i]
	last := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	if i < n-1 {
		old[i] = last
		(*h).down(i)
		if last.idx == i {
			(*h).up(i)
		}
	}
	ev.idx = -1
}

// EventStats counts engine activity since creation; used by the X12
// throughput benchmark and by tests asserting pool behaviour.
type EventStats struct {
	Scheduled int64 // Schedule/After calls
	Fired     int64 // events whose callback ran
	Cancelled int64 // events removed from the heap by Cancel
	Reused    int64 // Schedule calls served from the free list
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now    Time
	seed   int64
	seq    int64
	events eventHeap
	free   []*event     // released event objects awaiting reuse
	procs  []*Proc      // indexed by pid; nil once the process finishes
	idle   []*coroutine // finished bodies' coroutines awaiting reuse
	rng    *rand.Rand
	nlive  int // processes spawned and not yet finished
	stats  EventStats

	// quiesceHook runs whenever Run drains the event queue. With live
	// processes still parked this is the only moment a silent hang can
	// be observed, so the audit layer uses it as its watchdog: nothing
	// will ever run again unless an external Schedule arrives.
	// RunBefore never fires it — a windowed engine that is locally idle
	// may still receive cross-engine messages at the next barrier.
	quiesceHook func()
}

// NewEngine returns an engine with virtual time 0 and a deterministic
// random source seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine's random source was created with, so
// a recorded run can be re-instantiated bit-for-bit (trace replay).
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventStats returns cumulative engine activity counters.
func (e *Engine) EventStats() EventStats { return e.stats }

// PendingEvents returns the number of events currently in the heap.
// Cancelled events leave the heap immediately, so a workload that
// schedules and cancels timeouts in a loop keeps this bounded.
func (e *Engine) PendingEvents() int { return len(e.events) }

// Schedule registers fn to run at absolute virtual time t. Scheduling in
// the past is an error and panics (it would break causality). The
// returned handle can cancel the event before it fires.
func (e *Engine) Schedule(t Time, fn func()) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.stats.Reused++
	} else {
		ev = &event{}
	}
	ev.t, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.stats.Scheduled++
	e.events.push(ev)
	return EventHandle{eng: e, ev: ev, gen: ev.gen}
}

// After registers fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) EventHandle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// release returns an event object to the free list, invalidating all
// handles minted for its current incarnation.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// EventHandle allows cancelling a scheduled event. It is a value, not a
// pointer — Schedule mints one without allocating. The zero value reads
// as cancelled and Cancel on it is a no-op.
type EventHandle struct {
	eng       *Engine
	ev        *event
	gen       uint64
	cancelled bool
}

// Cancel prevents the event from firing and removes it from the event
// heap immediately (the object is recycled). Cancelling an already-fired
// or already-cancelled event is a no-op.
func (h *EventHandle) Cancel() {
	if h == nil || h.ev == nil || h.cancelled {
		return
	}
	h.cancelled = true
	if h.ev.gen != h.gen {
		return // already fired, cancelled elsewhere, or recycled
	}
	h.eng.events.remove(h.ev.idx)
	h.eng.stats.Cancelled++
	h.eng.release(h.ev)
}

// Cancelled reports whether Cancel was called on this handle (the nil
// and zero handles read as cancelled).
func (h *EventHandle) Cancelled() bool { return h == nil || h.ev == nil || h.cancelled }

// SetQuiesceHook registers fn to run each time Run drains the event
// queue (including at normal completion). The hook must not schedule
// new events; it is a read-only observation point for deadlock and
// invariant diagnostics.
func (e *Engine) SetQuiesceHook(fn func()) { e.quiesceHook = fn }

// step fires the earliest event: pops it, advances the clock, releases
// the object for reuse and runs the callback. The object is released
// before the callback runs so the callback can recycle it immediately;
// handles to the fired incarnation are invalidated by the gen bump.
func (e *Engine) step(ev *event) {
	e.events.pop()
	if ev.t < e.now {
		panic("sim: event time went backwards")
	}
	e.now = ev.t
	fn := ev.fn
	e.release(ev)
	e.stats.Fired++
	fn()
}

// Run executes events until the event queue is empty or the virtual
// clock would pass until. It returns the virtual time at which it
// stopped. When Run stops short of a finite until — on a future event or
// a drained queue — the clock advances to until, so callers mixing
// Run(t) with After(d) measure delays from t, not from the last fired
// event. Processes still blocked when the queue drains are left parked
// (a subsequent Schedule/wake can revive them); call Close to reap them.
func (e *Engine) Run(until Time) Time {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.t > until {
			break
		}
		e.step(ev)
	}
	if until < Infinity && e.now < until {
		e.now = until
	}
	if len(e.events) == 0 && e.quiesceHook != nil {
		e.quiesceHook()
	}
	return e.now
}

// RunBefore executes events strictly earlier than horizon and returns
// the current time (that of the last fired event; the clock is NOT
// advanced to the horizon, since a windowed caller will deliver new
// events from other engines before running the next window). It never
// fires the quiesce hook: a locally idle engine is not globally
// quiescent while barrier messages may still arrive. This is the
// building block for conservative parallel DES (internal/cluster).
func (e *Engine) RunBefore(horizon Time) Time {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.t >= horizon {
			break
		}
		e.step(ev)
	}
	return e.now
}

// PeekTime returns the timestamp of the earliest pending event, or
// (0, false) when the queue is empty.
func (e *Engine) PeekTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].t, true
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() Time { return e.Run(Infinity) }

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return len(e.events) == 0 }

// LiveProcs returns the number of processes that have been spawned and
// have not finished. After RunAll, a non-zero value with an empty event
// queue indicates blocked (potentially deadlocked) processes.
func (e *Engine) LiveProcs() int { return e.nlive }

// BlockedProcNames returns the names of processes that are still alive
// (parked) — useful in deadlock diagnostics and tests.
func (e *Engine) BlockedProcNames() []string {
	names := make([]string, 0, e.nlive)
	for _, p := range e.procs {
		if p != nil && !p.done {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}
