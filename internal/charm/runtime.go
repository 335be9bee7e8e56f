// Package charm implements a Charm++-like over-decomposed task runtime
// on the simulation engine: chare arrays, entry methods with the
// [prefetch] attribute and declared data dependences, per-PE converse
// schedulers with FIFO message queues and run queues, reductions
// (barriers) and node-level groups.
//
// The memory-heterogeneity-aware layer (internal/core) plugs into this
// runtime through the Interceptor interface, exactly where the paper
// modifies Charm++: "Before a chare's entry method is about to be
// executed by delivery of its input message, we intercept the call and
// check whether the entry method needs prefetching of data."
package charm

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/ring"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Chare is an application object; any type can be a chare.
type Chare interface{}

// AccessMode is the declared use of a data dependence, matching the
// paper's .ci annotations (readonly:, readwrite:, writeonly:).
type AccessMode int

const (
	// ReadOnly blocks may be shared across concurrently-scheduled
	// tasks (matrix A and B blocks in the paper's MatMul).
	ReadOnly AccessMode = iota
	// ReadWrite blocks are private to one task at a time.
	ReadWrite
	// WriteOnly blocks are written without being read first; they
	// still need HBM residence before the kernel runs.
	WriteOnly
)

// String names the mode as the .ci syntax does.
func (m AccessMode) String() string {
	switch m {
	case ReadOnly:
		return "readonly"
	case ReadWrite:
		return "readwrite"
	case WriteOnly:
		return "writeonly"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// DataHandle is the runtime's view of a managed data block (the paper's
// CkIOHandle); internal/core provides the implementation.
type DataHandle interface {
	// Size returns the block size in bytes.
	Size() int64
	// BlockName identifies the block in traces.
	BlockName() string
}

// DataDep pairs a handle with its declared access mode.
type DataDep struct {
	Handle DataHandle
	Mode   AccessMode
}

// Interceptor is the hook the OOC layer installs. Intercept begins a
// fresh [prefetch] message's pre-processing in the PE's scheduler
// process, before the entry is delivered, and PostProcess begins the
// generated post-processing step (the one that evicts) after a
// [prefetch] entry method finishes. Each hands back the rest as a Hook,
// which the scheduler runs as a stage of its dequeue step.
type Interceptor interface {
	Intercept(p *sim.Proc, pe *PE, t *Task) Hook
	PostProcess(p *sim.Proc, pe *PE, t *Task) Hook
	// TaskCreated is called when a [prefetch] task is enqueued (at
	// send time), before delivery. The OOC layer uses it to track
	// which blocks have queued consumers — "the runtime system can
	// use the knowledge of data block dependences for tasks to
	// prefetch and evict" — so eviction prefers blocks with no
	// upcoming use.
	TaskCreated(t *Task)
}

// Hook is an interceptor's pre- or post-processing of one task under
// way on a PE. Its Step runs in the scheduler's sim.Proc.Drive step, so
// it follows the Drive step rules: it reports false when the PE's
// process must park, having arranged its wake, and is called again from
// the event callback that wakes the process; it reports true once the
// processing is over, and must not park. Owned then reports, for
// pre-processing, whether the interceptor took ownership of the task
// (queued it to reach the run queue later): the scheduler moves on, and
// otherwise executes the task at once.
type Hook interface {
	Step() bool
	Owned() bool
}

// Params are runtime cost knobs, all in seconds. They give the
// simulated scheduler the small constant costs whose accumulation the
// paper's Projections traces show.
type Params struct {
	// SchedOverhead is charged per message dispatch by the converse
	// scheduler.
	SchedOverhead sim.Time
	// MsgLatency delays delivery of a sent message.
	MsgLatency sim.Time
	// LockCost is charged per queue/data-block lock acquisition.
	LockCost sim.Time
}

// DefaultParams returns costs representative of a tuned runtime on KNL:
// microsecond-scale scheduling, sub-microsecond locks.
func DefaultParams() Params {
	return Params{
		SchedOverhead: 2e-6,
		MsgLatency:    1e-6,
		LockCost:      0.3e-6,
	}
}

// Runtime is a node-level Charm-like runtime instance.
type Runtime struct {
	mach   *topology.Machine
	params Params
	pes    []*PE
	arrays map[string]*Array
	groups map[string]interface{}

	interceptor Interceptor
	sinks       []Sink // the event stream, in attach order
	taskSeq     int64  // next Task.Seq, incremented per Array.Send

	// sent holds the tasks sent and not yet delivered, in send order.
	// Each send schedules deliverFn (deliver, bound once) after
	// MsgLatency.
	sent      ring.Deque[sentTask]
	deliverFn func()

	// Stats counts scheduler activity.
	Stats struct {
		MessagesSent      int64
		MessagesDelivered int64
		TasksIntercepted  int64
		TasksExecuted     int64
		Migrations        int64
	}
}

// NewRuntime builds a runtime with numPEs worker PEs on machine m.
func NewRuntime(m *topology.Machine, numPEs int, params Params) *Runtime {
	if numPEs <= 0 {
		panic("charm: need at least one PE")
	}
	if numPEs > m.Spec.Cores {
		panic(fmt.Sprintf("charm: %d PEs exceed %d cores", numPEs, m.Spec.Cores))
	}
	rt := &Runtime{
		mach:   m,
		params: params,
		arrays: make(map[string]*Array),
		groups: make(map[string]interface{}),
	}
	rt.deliverFn = rt.deliver
	for i := 0; i < numPEs; i++ {
		pe := newPE(rt, i)
		rt.pes = append(rt.pes, pe)
		pe.start()
	}
	return rt
}

// sentTask is a sent task and the PE it was sent to.
type sentTask struct {
	pe *PE
	t  *Task
}

// deliver hands the oldest sent task to its PE's message queue: an
// engine event MsgLatency after the send. Every delivery waits the same
// MsgLatency, so deliveries fire in send order and the oldest sent task
// is the one this event was scheduled for.
func (rt *Runtime) deliver() {
	s := rt.sent.PopFront()
	s.pe.enqueueMsg(s.t)
}

// SetInterceptor installs the OOC layer. It must be called before any
// messages are sent.
func (rt *Runtime) SetInterceptor(ic Interceptor) { rt.interceptor = ic }

// Machine returns the machine the runtime executes on.
func (rt *Runtime) Machine() *topology.Machine { return rt.mach }

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.mach.Eng }

// Params returns the runtime cost knobs.
func (rt *Runtime) Params() Params { return rt.params }

// NumPEs returns the worker PE count.
func (rt *Runtime) NumPEs() int { return len(rt.pes) }

// PE returns PE i.
func (rt *Runtime) PE(i int) *PE { return rt.pes[i] }

// RegisterGroup stores a node-level shared object (Charm++ nodegroup),
// used by the MatMul kernel to cache read-only blocks at node level.
func (rt *Runtime) RegisterGroup(name string, obj interface{}) {
	if _, dup := rt.groups[name]; dup {
		panic("charm: duplicate nodegroup " + name)
	}
	rt.groups[name] = obj
}

// Group returns a registered nodegroup.
func (rt *Runtime) Group(name string) interface{} {
	g, ok := rt.groups[name]
	if !ok {
		panic("charm: unknown nodegroup " + name)
	}
	return g
}

// Main spawns the application's main process (the equivalent of the
// mainchare): setup code that sends the initial messages.
func (rt *Runtime) Main(body func(p *sim.Proc)) *sim.Proc {
	return rt.Engine().Spawn("main", body)
}

// Reduction is a counting barrier: when Expect contributions have
// arrived, the callback runs once (as an engine event). It mirrors
// Charm++ contribute/reduction with a CkCallback.
type Reduction struct {
	rt       *Runtime
	expect   int
	arrived  int
	callback func()
}

// NewReduction creates a reduction expecting expect contributions.
func (rt *Runtime) NewReduction(expect int, callback func()) *Reduction {
	if expect <= 0 {
		panic("charm: reduction must expect at least one contribution")
	}
	return &Reduction{rt: rt, expect: expect, callback: callback}
}

// Contribute adds one contribution; the final one fires the callback.
func (r *Reduction) Contribute() {
	r.arrived++
	if r.arrived > r.expect {
		panic("charm: too many reduction contributions")
	}
	if r.arrived == r.expect {
		r.arrived = 0 // reusable, like a Charm++ reduction per iteration
		cb := r.callback
		r.rt.Engine().Schedule(r.rt.Engine().Now(), cb)
	}
}
