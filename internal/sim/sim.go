// Package sim implements a deterministic discrete-event simulation engine
// with coroutine-style processes and virtual-time synchronisation
// primitives (Mutex, Cond, WaitGroup).
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
// A process whose wait is a protocol of its own (taking locks,
// waiting on a condition, sleeping) calls Proc.Drive with a step
// function that does what its body would do between two parks. The
// engine runs the step from each event callback that wakes the
// process, with the events the blocking code would make, and resumes
// the process once, when the step reports it done. A Scan, which takes
// a row of locks in turn looking for one whose slot needs work, runs as
// a stage of such a step, or on its own through Proc.Sweep. The loop
// yields to the Go scheduler every yieldEvery events, since a run whose
// processes rarely resume keeps one goroutine busy throughout.
//
// Events wait on three kinds of queue. Most events are either same-instant
// (a wake, a spawn, a zero sleep: Schedule at now) or lock charges
// (Mutex.AcquireCost), and both arrive already in (t, seq) order, so they
// go on FIFOs: one for same-instant events and one per distinct charge
// value. Every other event goes on a binary heap. The engine fires the
// minimum (t, seq) among the heap top and the FIFO heads, so the merged
// order is exactly the order one heap would give.
//
// A caller that must act once per instant, after every event at that
// instant, registers with AtInstantEnd: the engine runs the hook when no
// event is left at the current time, before the clock moves on. memsim
// fills its bandwidth rates this way, once per instant rather than once
// per flow start and completion. The event the hook schedules can still
// take its place in the instant's order: ReserveSeq takes a sequence
// number when the need arises, and ScheduleReserved schedules the event
// with it later.
//
// The hot path is allocation-free at steady state: fired and cancelled
// events return to a free list and are reused by later Schedule calls
// (generation counters keep stale handles harmless), the event heap is
// intrusive (each event knows its own heap slot, so Cancel removes it in
// O(log n) instead of leaving a dead entry behind; a FIFO skips a
// cancelled slot when it reaches it), processes live in a dense slice
// indexed by pid rather than a map, and each process binds its wake
// callbacks once at Spawn, so waking it allocates nothing.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// (-1 when it is not on the heap), maintained by every sift so
// cancellation can remove the entry directly.
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

// fifoSlot is one FIFO entry: an event and the generation it had when
// queued. Cancel releases the event at once, so a slot whose generation
// no longer matches is stale and the FIFO skips it.
type fifoSlot struct {
	ev  *event
	gen uint64
}

// fifo is a ring buffer of events already in (t, seq) order: the
// same-instant queue, or the lock-charge queue of one charge value d.
// It is hand-rolled rather than a ring.Deque so that front, which the
// engine calls for every event it fires, inlines into the engine loop.
type fifo struct {
	d     Time
	slots []fifoSlot // len is zero or a power of two
	head  int
	n     int // slots in use, stale ones included
}

func (q *fifo) push(ev *event) {
	if q.n == len(q.slots) {
		grown := make([]fifoSlot, max(2*len(q.slots), 16))
		for i := 0; i < q.n; i++ {
			grown[i] = q.slots[(q.head+i)&(len(q.slots)-1)]
		}
		q.slots, q.head = grown, 0
	}
	q.slots[(q.head+q.n)&(len(q.slots)-1)] = fifoSlot{ev, ev.gen}
	q.n++
}

// front returns the earliest live event, dropping stale slots on the
// way, or nil when the FIFO holds none.
func (q *fifo) front() *event {
	for q.n > 0 {
		if s := q.slots[q.head]; s.ev.gen == s.gen {
			return s.ev
		}
		q.drop()
	}
	return nil
}

// drop removes the head slot. It leaves the slot's contents: the engine
// holds every event object anyway, queued or on the free list.
func (q *fifo) drop() {
	q.head = (q.head + 1) & (len(q.slots) - 1)
	q.n--
}

// EventStats counts engine activity since creation; read by cluster run
// signatures, hmbench's event counts and tests that pin event counts
// and pool behaviour.
type EventStats struct {
	Scheduled int64 // Schedule/After/ScheduleReserved calls
	Fired     int64 // events whose callback ran
	Cancelled int64 // events cancelled before they fired
	Reused    int64 // Schedule calls served from the free list
	Resumes   int64 // process coroutine resumes: a grant that runs a body, or ends a Drive
	Steps     int64 // wakes a Drive step handled in the waking callback, leaving its process parked
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now    Time
	seed   int64
	seq    int64
	events eventHeap    // events neither same-instant nor lock charges
	nowq   fifo         // events scheduled at the instant they fire
	locks  []fifo       // lock charges, one FIFO per distinct charge
	queued int          // live (uncancelled) events on nowq and locks
	free   []*event     // released event objects awaiting reuse
	procs  []*Proc      // indexed by pid; nil once the process finishes
	idle   []*coroutine // finished bodies' coroutines awaiting reuse
	rng    *rand.Rand
	nlive  int // processes spawned and not yet finished
	stats  EventStats

	// atEnd holds the AtInstantEnd hooks waiting for the current
	// instant to end, in registration order; running is true while Run
	// or RunBefore fires events, so a hook registered outside them runs
	// at once.
	atEnd   []func()
	running bool

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

// PendingEvents returns the number of events waiting to fire, on every
// queue. Cancelled events stop counting immediately, so a workload that
// schedules and cancels timeouts in a loop keeps this bounded.
func (e *Engine) PendingEvents() int { return len(e.events) + e.queued }

// Schedule registers fn to run at absolute virtual time t. Scheduling in
// the past is an error and panics (it would break causality). The
// returned handle can cancel the event before it fires.
func (e *Engine) Schedule(t Time, fn func()) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.newEvent(t, e.ReserveSeq(), fn)
	if t == e.now {
		e.enqueue(&e.nowq, ev)
	} else {
		e.events.push(ev)
	}
	return EventHandle{eng: e, ev: ev, gen: ev.gen}
}

// ReserveSeq takes the next sequence number without scheduling anything.
// ScheduleReserved later schedules an event with it, and the event then
// fires among same-time events as if it had been scheduled at the moment
// of the reservation. A reservation that is never used costs nothing.
func (e *Engine) ReserveSeq() int64 {
	seq := e.seq
	e.seq++
	return seq
}

// ScheduleReserved registers fn to run at absolute virtual time t with
// the sequence number seq, which ReserveSeq must have returned and no
// other event may carry. Like Schedule, it panics on a time before now.
// The event goes on the heap, which orders any (t, seq); the FIFOs
// assume that events arrive in sequence order.
func (e *Engine) ScheduleReserved(t Time, seq int64, fn func()) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: sequence number %d was never reserved", seq))
	}
	ev := e.newEvent(t, seq, fn)
	e.events.push(ev)
	return EventHandle{eng: e, ev: ev, gen: ev.gen}
}

// AtInstantEnd registers fn to run once the current instant has no event
// left: after every event at the current time, those scheduled by
// earlier hooks included, and before the clock advances or Run or
// RunBefore returns. Outside Run and RunBefore it runs fn at once.
// Registering allocates nothing at steady state. Hooks that a panic left
// pending run at the next Run or RunBefore.
func (e *Engine) AtInstantEnd(fn func()) {
	if !e.running {
		fn()
		return
	}
	e.atEnd = append(e.atEnd, fn)
}

// endInstant runs the oldest pending AtInstantEnd hook. The hook leaves
// the list before it runs, so a panicking hook is not run twice.
func (e *Engine) endInstant() {
	fn := e.atEnd[0]
	n := copy(e.atEnd, e.atEnd[1:])
	e.atEnd[n] = nil
	e.atEnd = e.atEnd[:n]
	fn()
}

// scheduleCharge registers fn to run d > 0 seconds from now, on the
// FIFO of lock charges of d. The charges of one d are queued at a
// non-decreasing now plus the same d, and rounded float addition is
// monotone, so the FIFO is in (t, seq) order.
func (e *Engine) scheduleCharge(d Time, fn func()) EventHandle {
	ev := e.newEvent(e.now+d, e.ReserveSeq(), fn)
	i := 0
	for i < len(e.locks) && e.locks[i].d != d {
		i++
	}
	if i == len(e.locks) {
		e.locks = append(e.locks, fifo{d: d})
	}
	e.enqueue(&e.locks[i], ev)
	return EventHandle{eng: e, ev: ev, gen: ev.gen}
}

// newEvent takes an event object from the free list, or allocates one,
// and stamps it with t, seq and fn.
func (e *Engine) newEvent(t Time, seq int64, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.stats.Reused++
	} else {
		ev = &event{}
	}
	ev.t, ev.seq, ev.fn = t, seq, fn
	e.stats.Scheduled++
	return ev
}

func (e *Engine) enqueue(q *fifo, ev *event) {
	ev.idx = -1
	q.push(ev)
	e.queued++
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

// Cancel prevents the event from firing and releases it immediately: it
// leaves the heap at once, or leaves a stale FIFO slot behind that the
// FIFO skips. Cancelling an already-fired or already-cancelled event is
// a no-op.
func (h *EventHandle) Cancel() {
	if h == nil || h.ev == nil || h.cancelled {
		return
	}
	h.cancelled = true
	if h.ev.gen != h.gen {
		return // already fired, cancelled elsewhere, or recycled
	}
	if h.ev.idx >= 0 {
		h.eng.events.remove(h.ev.idx)
	} else {
		h.eng.queued--
	}
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

// next returns the earliest pending event, the minimum (t, seq) among the
// heap top and the FIFO heads, and the FIFO holding it (nil for the
// heap). It returns a nil event when nothing is pending.
func (e *Engine) next() (*event, *fifo) {
	var ev *event
	if len(e.events) > 0 {
		ev = e.events[0]
	}
	if e.queued == 0 {
		return ev, nil
	}
	var q *fifo
	if f := e.nowq.front(); f != nil && (ev == nil || f.before(ev)) {
		ev, q = f, &e.nowq
	}
	for i := range e.locks {
		if f := e.locks[i].front(); f != nil && (ev == nil || f.before(ev)) {
			ev, q = f, &e.locks[i]
		}
	}
	return ev, q
}

// before reports whether ev fires before o: (t, seq) order.
func (ev *event) before(o *event) bool {
	return ev.t < o.t || (ev.t == o.t && ev.seq < o.seq)
}

// step fires ev, the earliest event, taking it off q (or the heap when q
// is nil): it advances the clock, releases the object for reuse and runs
// the callback. The object is released before the callback runs so the
// callback can recycle it immediately; handles to the fired incarnation
// are invalidated by the gen bump.
func (e *Engine) step(ev *event, q *fifo) {
	if q != nil {
		q.drop()
		e.queued--
	} else {
		e.events.pop()
	}
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
	defer e.exitLoop(e.running)
	e.running = true
	for {
		ev, q := e.next()
		if len(e.atEnd) > 0 && (ev == nil || ev.t != e.now) {
			e.endInstant()
			continue
		}
		if ev == nil || ev.t > until {
			break
		}
		e.step(ev, q)
	}
	if until < Infinity && e.now < until {
		e.now = until
	}
	if e.Idle() && e.quiesceHook != nil {
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
// building block of internal/cluster's conservative windows.
func (e *Engine) RunBefore(horizon Time) Time {
	defer e.exitLoop(e.running)
	e.running = true
	for {
		ev, q := e.next()
		if len(e.atEnd) > 0 && (ev == nil || ev.t != e.now) {
			e.endInstant()
			continue
		}
		if ev == nil || ev.t >= horizon {
			break
		}
		e.step(ev, q)
		if e.stats.Fired%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	return e.now
}

// yieldEvery is how many events the loop fires between yields to the
// Go scheduler. A run whose processes resume rarely keeps one goroutine
// busy for its whole length, and at GOMAXPROCS=1 the garbage
// collector's fractional mark worker then waits for the 10 ms
// preemption tick: a Small X15 search's concurrent mark phases lasted
// 6.5 ms on average instead of 1.7 ms, with the write barrier on
// throughout. Yielding every 1,024 events (about 0.1 ms) lets the
// worker run; the engine's state and order are untouched.
const yieldEvery = 1024

// exitLoop restores the loop state Run or RunBefore found on entry. They
// defer it, so a body panic that unwinds through them does not leave
// AtInstantEnd deferring hooks that nothing will run.
func (e *Engine) exitLoop(running bool) { e.running = running }

// PeekTime returns the timestamp of the earliest pending event, or
// (0, false) when the queue is empty.
func (e *Engine) PeekTime() (Time, bool) {
	ev, _ := e.next()
	if ev == nil {
		return 0, false
	}
	return ev.t, true
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() Time { return e.Run(Infinity) }

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return e.PendingEvents() == 0 }

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
