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
	pe.mu.Lock(p)
	pe.runq.PushBack(t)
	pe.mu.Unlock(p)
	pe.notEmpty.Signal()
}

// QueueLengths returns the current message- and run-queue lengths.
func (pe *PE) QueueLengths() (msgs, ready int) { return pe.msgq.Len(), pe.runq.Len() }

// loop is the converse scheduler: pop run-queue tasks first, then
// messages; intercept [prefetch] messages; execute entry methods to
// completion, serially per PE.
func (pe *PE) loop(p *sim.Proc) {
	rt := pe.rt
	for {
		pe.mu.Lock(p)
		for pe.runq.Len() == 0 && pe.msgq.Len() == 0 {
			idle := p.Now()
			pe.notEmpty.Wait(p)
			if rt.Observed() {
				rt.note(EvIdle, pe.id, 0, nil, idle)
			}
		}
		var t *Task
		fromRunQueue := false
		if pe.runq.Len() > 0 {
			t = pe.runq.PopFront()
			fromRunQueue = true
		} else {
			t = pe.msgq.PopFront()
		}
		pe.mu.Unlock(p)

		if rt.params.SchedOverhead > 0 {
			start := p.Now()
			p.Sleep(rt.params.SchedOverhead)
			if rt.Observed() {
				rt.note(EvOverhead, pe.id, 0, nil, start)
			}
		}
		rt.Stats.MessagesDelivered++
		pe.Delivered++

		// Interception point: fresh [prefetch] messages go through
		// the OOC layer's pre-processing. Tasks arriving from the run
		// queue were already admitted and run directly.
		if !fromRunQueue && t.Entry.Prefetch && rt.interceptor != nil {
			rt.Stats.TasksIntercepted++
			if rt.interceptor.Intercept(p, pe, t) {
				continue
			}
		}

		pe.execute(p, t)
	}
}

// execute runs the entry method and, for [prefetch] entries under an
// interceptor, the generated post-processing (eviction) step.
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
	if t.Entry.Prefetch && rt.interceptor != nil {
		rt.interceptor.PostProcess(p, pe, t)
	}
}
