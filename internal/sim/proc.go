//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
)

// errKilled is the sentinel panic value used to unwind a parked process
// when the engine is closed.
var errKilled = errors.New("sim: process killed")

// Proc is a simulation process: a coroutine that runs in virtual time.
// All Proc methods must be called from within the process's own body
// function; the engine guarantees only one process runs at a time.
type Proc struct {
	e      *Engine
	id     int
	name   string
	done   bool
	waking bool        // a wake event for this proc is pending
	body   func(*Proc) // nil once p has finished
	co     *coroutine  // runs body from p's first grant until it ends

	// p's Drive state: step is the step p waits on in Drive, parked is
	// set while it waits there and grant runs step instead of resuming
	// p, and stepping is set while a step runs, so a step that parks
	// fails loudly.
	step             func() bool
	parked, stepping bool

	// Event callbacks bound once in Spawn, so a wake schedules an
	// existing func value instead of allocating a closure.
	grantFn func() // resume now
	timerFn func() // resume unless a wake is already pending
}

// A coroutine is an iter.Pull coroutine that runs process bodies one
// after another: next resumes it until the body parks or returns, yield
// parks it (and reports false once stop has killed it), stop kills it.
//
// A finished body hands its coroutine to the engine's idle list for the
// next first grant instead of letting it exit, so an engine creates only
// as many coroutines as it ever has processes running at once, and Close
// ends them. The reason is the race detector: runtime.coroexit ends a
// coroutine's goroutine without the goroutine-end hook a normal exit
// calls, so the detector keeps its state for every coroutine that ever
// exited. With a coroutine per process, a -race run that spawns a
// short-lived process per task grows by gigabytes.
type coroutine struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	p     *Proc // the process being run; nil while idle
}

// Spawn creates a process executing body and schedules it to start at the
// current virtual time. The returned Proc is also passed to body.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{e: e, id: len(e.procs), name: name, body: body}
	p.grantFn = func() { e.grant(p) }
	p.timerFn = func() {
		if !p.waking {
			e.grant(p)
		}
	}
	e.procs = append(e.procs, p)
	e.nlive++
	e.Schedule(e.now, p.grantFn)
	return p
}

// grant runs p until it parks or exits, giving it a coroutine on its
// first grant. A p parked in Drive resumes only once its step returns
// true: until then grant runs the step itself. It must only be called
// from the engine loop (inside an event callback); a panic in p's body
// or step re-panics here.
func (e *Engine) grant(p *Proc) {
	if p.done {
		return
	}
	p.waking = false
	if p.co == nil {
		p.co = e.coroutine()
		p.co.p = p
	} else if p.parked {
		if !p.stepFromWake() {
			e.stats.Steps++
			return
		}
		p.parked, p.step = false, nil
	}
	e.stats.Resumes++
	p.co.next()
}

// coroutine returns an idle coroutine, or starts one that runs each
// body it is handed and then waits on the idle list for the next.
func (e *Engine) coroutine() *coroutine {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	c := &coroutine{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for c.run() {
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// run runs the current process's body and reports whether it returned,
// so the coroutine may run another; it reports false when Close killed
// the process. It re-panics a body panic with the process's name.
func (c *coroutine) run() (returned bool) {
	p := c.p
	defer func() {
		c.p = nil
		p.exit()
		if r := recover(); r != nil && r != errKilled {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	p.body(p)
	return true
}

// exit records that p has finished. It drops p's body and coroutine: a
// PE, a flow or a lock may hold the Proc long after its body returned.
func (p *Proc) exit() {
	p.body, p.co, p.step = nil, nil, nil
	p.done = true
	p.e.nlive--
	p.e.procs[p.id] = nil
}

// wake schedules p to resume at the current time. It is idempotent while
// the wake is pending: waking an already-waking process is a no-op, which
// lets Signal/Broadcast and timeouts race safely.
func (e *Engine) wake(p *Proc) {
	if p.done || p.waking {
		return
	}
	p.waking = true
	e.Schedule(e.now, p.grantFn)
}

// wakeAt schedules p to resume at absolute time t, unless a wake is
// already pending when t comes (Sleep and ArmSleepUntil arm it).
func (e *Engine) wakeAt(t Time, p *Proc) {
	e.Schedule(t, p.timerFn)
}

// Close kills every process that has not finished and ends the idle
// coroutines, so no goroutine of the engine's outlives it: a parked
// process unwinds from its park, and one never granted is reaped without
// running. The engine must not be used afterwards. Victims die in id
// (spawn) order so teardown is as deterministic as the run itself. A
// panic raised while a victim unwinds (say, from a deferred Unlock of a
// mutex it gave up in Cond.Wait) surfaces here, as a body panic surfaces
// from Run.
func (e *Engine) Close() {
	for i := 0; i < len(e.procs); i++ {
		if p := e.procs[i]; p != nil {
			if p.co != nil {
				p.co.stop()
			}
			if !p.done { // never granted, so it has no coroutine
				p.exit()
			}
		}
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the engine-unique process id.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park yields control to the engine until some event wakes this
// process. Callers must have arranged for a wake (timer, queue position,
// signal, ...) or the process stays parked until Close kills it.
func (p *Proc) park() {
	if p.stepping {
		panic("sim: Drive step parked process " + p.name)
	}
	if !p.co.yield(struct{}{}) {
		panic(errKilled)
	}
}

// Sleep advances the process by d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	p.ArmSleep(d)
	p.park()
}

// ArmSleep arranges p's wake d seconds from now: the half of Sleep
// before its park, for a Drive step to return false after. A zero d
// still waits for a wake at now, so that same-time events scheduled
// earlier run first, matching a thread yield.
func (p *Proc) ArmSleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		p.e.wake(p)
		return
	}
	p.e.wakeAt(p.e.now+d, p)
}

// ArmSleepUntil arranges p's wake at absolute virtual time t, for a
// Drive step to return false after. A target at or before the current
// time degenerates to a yield, so replaying a recorded timeline can
// always wait for the next timestamp without checking for zero gaps.
func (p *Proc) ArmSleepUntil(t Time) {
	if t <= p.e.now {
		p.e.wake(p)
		return
	}
	p.e.wakeAt(t, p)
}

// Suspend parks the process until another process (or event callback)
// calls Resume on it. It is the low-level building block for the
// synchronisation primitives.
func (p *Proc) Suspend() { p.park() }

// Resume wakes a process parked in Suspend (or any park). Safe to call
// from event callbacks or other processes; waking an already-runnable
// process is a no-op. A process parked in Drive runs its step instead.
func (p *Proc) Resume() { p.e.wake(p) }

// Spawn starts a child process at the current virtual time.
func (p *Proc) Spawn(name string, body func(q *Proc)) *Proc {
	return p.e.Spawn(name, body)
}

// Drive runs step until it returns true, parking p between calls. It
// calls step at once, and again from every event callback that wakes
// p, so p resumes only once, when step returns true; a Drive whose
// first call returns true does not park at all.
//
// A step is the code a body would run between two parks, split at each
// park: where the body would call a blocking primitive, the step calls
// the half that arranges the wake (Mutex.Acquire, Cond.Join,
// Proc.ArmSleep, or queuing p where another process will Resume it)
// and returns false instead of parking. The body would run the same
// code in the same callback, since a wake resumes p inside the
// callback that grants it, so a step machine schedules exactly the
// events of the blocking code it mirrors; only EventStats.Resumes
// falls, by the EventStats.Steps the callbacks handle without p.
//
// A step may run outside p's body, so it must not park: a step that
// calls a blocking primitive, or Drive, panics naming p. A panic in a
// step surfaces from Run as a body panic does, and leaves p parked for
// Close to reap. Drive keeps step until it returns true, so callers bind
// their step once; its state lives in p, so a Drive allocates nothing.
func (p *Proc) Drive(step func() bool) {
	if p.stepping {
		// A nested Drive would overwrite the running step and turn
		// its park guard off.
		panic("sim: Drive inside a Drive step, process " + p.name)
	}
	if p.runStep(step) {
		return
	}
	p.step, p.parked = step, true
	p.park()
}

// runStep calls step for p with the stepping guard set.
func (p *Proc) runStep(step func() bool) bool {
	p.stepping = true
	done := step()
	p.stepping = false
	return done
}

// stepFromWake runs p's parked step from the callback that woke p and
// reports whether it returned true, so that p must resume. A panic in
// the step re-panics naming p, as one in its body would; p stays parked
// for Close to reap.
func (p *Proc) stepFromWake() bool {
	defer func() {
		if r := recover(); r != nil {
			p.stepping = false
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	return p.runStep(p.step)
}
