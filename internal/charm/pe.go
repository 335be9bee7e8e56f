package charm

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/ring"
	"github.com/hetmem/hetmem/internal/sim"
)

// Task is a deliverable unit: a message bound for one chare element's
// entry method. The OOC layer wraps Tasks (plus their data dependences)
// into OOCTasks.
type Task struct {
	Elem  *Element
	Entry *Entry
	Msg   *Message

	// Seq is the runtime-wide send-order sequence number, assigned by
	// Array.Send (Broadcast included). Dense and monotonic from 0, it
	// lets per-task side tables (the trace recorder's ID table, for
	// one) live in slices instead of maps.
	Seq int64

	// Deps is resolved from the entry's dependence declaration when
	// the task is created.
	Deps []DataDep

	// EnqueueTime is when the task entered the system (send time).
	EnqueueTime sim.Time

	// Ctx is interceptor-private state attached during pre-processing
	// (the OOC layer stores its OOCTask wrapper here).
	Ctx interface{}

	// msg is the message of a task made by Array.Send, which points
	// Msg here, so a send allocates one object.
	msg Message
}

// String renders the task for diagnostics.
func (t *Task) String() string {
	return fmt.Sprintf("%s[%d].%s", t.Elem.arr.name, t.Elem.Index, t.Entry.Name)
}

// PE is a processing element: one worker with a converse scheduler
// process, a FIFO message queue and a FIFO run queue of OOC-ready
// tasks. The run queue has priority, matching the paper ("tasks are
// picked up in FIFO order from the run queue and scheduled").
type PE struct {
	rt *Runtime
	id int

	mu       sim.Mutex
	notEmpty *sim.Cond
	msgq     ring.Deque[*Task]
	runq     ring.Deque[*Task]

	proc *sim.Proc
	deq  dequeue // the scheduler's dequeue, stepped by proc

	// Stats for this PE.
	Delivered int64
	Executed  int64
}

func newPE(rt *Runtime, id int) *PE {
	pe := &PE{rt: rt, id: id}
	pe.mu.AcquireCost = rt.params.LockCost
	pe.notEmpty = sim.NewCond(&pe.mu)
	return pe
}

// ID returns the PE index.
func (pe *PE) ID() int { return pe.id }

// Runtime returns the owning runtime.
func (pe *PE) Runtime() *Runtime { return pe.rt }

func (pe *PE) start() {
	pe.proc = pe.rt.Engine().Spawn(fmt.Sprintf("PE%d", pe.id), pe.loop)
	pe.deq = dequeue{pe: pe, p: pe.proc}
	pe.deq.step = pe.deq.advance
}

// enqueueMsg appends a task to the message queue (called from the
// runtime's delivery event, MsgLatency after the send).
func (pe *PE) enqueueMsg(t *Task) {
	pe.msgq.PushBack(t)
	pe.notEmpty.Signal()
}

// PushRun adds an OOC-ready task to this PE's run queue and wakes the
// scheduler. It may be called from any process (IO threads, other PEs).
func (pe *PE) PushRun(p *sim.Proc, t *Task) {
	var s sim.LockStep
	for !pe.PushRunStep(p, &s, t) {
		p.Suspend()
	}
}

// PushRunStep is PushRun for a sim.Proc.Drive step: it takes p's
// acquisition of the queue lock one step on from *s and reports false
// while p must park for it, then queues t, unlocks, wakes the scheduler
// and reports true.
func (pe *PE) PushRunStep(p *sim.Proc, s *sim.LockStep, t *Task) bool {
	if !pe.mu.Acquire(p, s) {
		return false
	}
	pe.runq.PushBack(t)
	pe.mu.Unlock(p)
	pe.notEmpty.Signal()
	return true
}

// QueueLengths returns the current message- and run-queue lengths.
func (pe *PE) QueueLengths() (msgs, ready int) { return pe.msgq.Len(), pe.runq.Len() }

// loop is the converse scheduler: pop run-queue tasks first, then
// messages; intercept [prefetch] messages; execute entry methods to
// completion, serially per PE. Everything between two entry methods
// runs as one sim.Proc.Drive step (dequeue): the last task's
// post-processing, the wait for the next task and its pre-processing,
// so the PE resumes once per task it executes.
func (pe *PE) loop(p *sim.Proc) {
	d := &pe.deq
	for {
		p.Drive(d.step)
		t := d.t
		d.t = nil
		pe.execute(p, t)
		d.done = t
	}
}

// dequeue is the scheduler's way from one entry method to the next, as
// a Drive step. It runs the blocking sequence
//
//	if done is a [prefetch] task under an interceptor {
//		run the interceptor's PostProcess(done)
//	}
//	for {
//		pe.mu.Lock(p)
//		for pe.runq.Len() == 0 && pe.msgq.Len() == 0 {
//			idle := p.Now()
//			pe.notEmpty.Wait(p)
//			note EvIdle from idle
//		}
//		pop t, from the run queue first
//		pe.mu.Unlock(p)
//		if SchedOverhead > 0 {
//			start := p.Now()
//			p.Sleep(SchedOverhead)
//			note EvOverhead from start
//		}
//		count t delivered
//		if t is a fresh [prefetch] message under an interceptor {
//			run the interceptor's Intercept(t)
//			if the interceptor took t { continue }
//		}
//		return t, to execute
//	}
//
// split at its parks: lock holds the acquisition under way, waited is
// set while p waits on notEmpty (from idle), overhead while it sleeps
// off SchedOverhead (from start), and hook is the interceptor's
// processing under way, stepped in place.
type dequeue struct {
	pe   *PE
	p    *sim.Proc
	step func() bool // advance, bound once

	at               deqStage
	lock             sim.LockStep
	waited, overhead bool
	idle, start      sim.Time
	hook             Hook

	done         *Task // the task executed last, whose post-processing is due
	t            *Task // the task to execute
	fromRunQueue bool
}

// deqStage is where a dequeue is in its sequence.
type deqStage uint8

const (
	deqPost     deqStage = iota // begin done's post-processing, if it has one
	deqPostHook                 // post-processing is under way
	deqLock                     // take the queue lock, waiting for a task
	deqDeliver                  // the overhead is paid: deliver t
	deqPreHook                  // pre-processing is under way
)

// advance runs the dequeue until p must park, and reports false, or
// until t holds the next task to execute, and reports true.
func (d *dequeue) advance() bool {
	pe, p, rt := d.pe, d.p, d.pe.rt
	for {
		switch d.at {
		case deqPost:
			t := d.done
			d.done = nil
			d.at = deqLock
			if t != nil && t.Entry.Prefetch && rt.interceptor != nil {
				d.hook = rt.interceptor.PostProcess(p, pe, t)
				d.at = deqPostHook
			}
		case deqPostHook:
			if !d.hook.Step() {
				return false
			}
			d.hook = nil
			d.at = deqLock
		case deqLock:
			if !pe.mu.Acquire(p, &d.lock) {
				return false
			}
			if d.waited {
				d.waited = false
				if rt.Observed() {
					rt.note(EvIdle, pe.id, 0, nil, d.idle)
				}
			}
			if pe.runq.Len() == 0 && pe.msgq.Len() == 0 {
				d.idle = p.Now()
				pe.notEmpty.Join(p)
				d.waited = true
				return false
			}
			if d.fromRunQueue = pe.runq.Len() > 0; d.fromRunQueue {
				d.t = pe.runq.PopFront()
			} else {
				d.t = pe.msgq.PopFront()
			}
			pe.mu.Unlock(p)
			d.at = deqDeliver
			if rt.params.SchedOverhead > 0 {
				d.start = p.Now()
				p.ArmSleep(rt.params.SchedOverhead)
				d.overhead = true
				return false
			}
		case deqDeliver:
			if d.overhead {
				d.overhead = false
				if rt.Observed() {
					rt.note(EvOverhead, pe.id, 0, nil, d.start)
				}
			}
			t := d.t
			rt.Stats.MessagesDelivered++
			pe.Delivered++
			// Interception point: fresh [prefetch] messages go through
			// the OOC layer's pre-processing. Tasks arriving from the
			// run queue were already admitted and run directly.
			if !d.fromRunQueue && t.Entry.Prefetch && rt.interceptor != nil {
				rt.Stats.TasksIntercepted++
				d.hook = rt.interceptor.Intercept(p, pe, t)
				d.at = deqPreHook
				continue
			}
			d.at = deqPost
			return true
		case deqPreHook:
			if !d.hook.Step() {
				return false
			}
			owned := d.hook.Owned()
			d.hook = nil
			if owned {
				d.t = nil
				d.at = deqLock
				continue
			}
			d.at = deqPost
			return true
		}
	}
}

// execute runs the entry method; the dequeue that follows runs the
// generated post-processing (eviction) step of [prefetch] entries under
// an interceptor.
func (pe *PE) execute(p *sim.Proc, t *Task) {
	rt := pe.rt
	start := p.Now()
	if rt.Observed() {
		rt.note(EvRunStart, pe.id, p.ID(), t, 0)
	}
	t.Entry.Fn(p, pe, t.Elem, t.Msg)
	t.Elem.load += p.Now() - start
	if rt.Observed() {
		rt.note(EvRunEnd, pe.id, p.ID(), t, start)
	}
	rt.Stats.TasksExecuted++
	pe.Executed++
}
