package charm

import "github.com/hetmem/hetmem/internal/sim"

// EventKind says what an Event reports and so which of its fields are
// set.
type EventKind uint8

// The runtime's event kinds. Kinds that close a span (RunEnd, Idle,
// Overhead, LockWait, FetchEnd, Evict) carry the span's start in
// Event.Start; it ends at the engine's current time.
const (
	// EvSend: Task was created, after dependence resolution and before
	// delivery is scheduled.
	EvSend EventKind = iota
	// EvRunStart: Task's entry method is about to run on PE Lane, in
	// the scheduler process Proc.
	EvRunStart
	// EvRunEnd: Task's entry method, begun at Start, returned.
	EvRunEnd
	// EvIdle: PE Lane waited for work from Start.
	EvIdle
	// EvOverhead: PE Lane paid the per-dispatch scheduling cost from
	// Start.
	EvOverhead
	// EvHandle: the managed block Name of Bytes was declared, initially
	// placed as Tier (a block state).
	EvHandle
	// EvAdmit: the strategy admitted Task on PE Lane, with Bytes of
	// dependences; Staged says it was queued rather than run inline.
	EvAdmit
	// EvLockWait: lane Lane waited from Start for block Name's lock.
	EvLockWait
	// EvFetchStart: lane Lane starts moving block Name of Bytes into HBM.
	EvFetchStart
	// EvFetchEnd: the fetch begun at Start finished, taking Dur, from
	// tier Tier; Refetch marks a block resident before, and Policy is
	// the victim policy in force.
	EvFetchEnd
	// EvEvict: lane Lane moved block Name of Bytes out of HBM from
	// Start, taking Dur, to tier Tier under victim policy Policy;
	// Forced marks a block a queued task still needed.
	EvEvict
	// EvStageRetry: staging Task on PE Lane aborted, needing Bytes of
	// HBM with Used in use and Reserved promised.
	EvStageRetry
	// EvKernel: a compute kernel of Flops at traffic Scale ran in
	// process Proc from Start for Dur.
	EvKernel
	// EvRetune: the manager's options changed; the new ones are in
	// force when the event arrives.
	EvRetune
	// EvTaskDone: a [prefetch] Task finished, post-processing included.
	EvTaskDone
	// EvPressure: HBM usage (Used) or the staging reservation
	// (Reserved) moved.
	EvPressure
	// EvQueueDepth: wait queue Lane holds N tasks after a push.
	EvQueueDepth
	// EvInflight: PE Lane has N staged tasks not yet completed.
	EvInflight
	// EvDecision: the adaptive controller took decision Name at
	// window N.
	EvDecision
)

// Event is one instrumentation event. Kind says which fields are set;
// the rest are zero. Events carry names, sizes, lanes and times, never
// the emitting layer's own types, so a sink depends on charm alone.
type Event struct {
	Kind EventKind
	// Lane is the PE or IO lane the event happened on, or the wait
	// queue of an EvQueueDepth.
	Lane int
	// N is a count: a queue depth, an in-flight count or a window.
	N int
	// Proc is the ID of the sim process the event happened in.
	Proc int
	Task *Task
	// Name is a block name, or a decision's action.
	Name string
	// Tier is a memory node name, or a block state for EvHandle.
	Tier   string
	Policy string
	Bytes  int64
	// Used and Reserved are HBM bytes in use and promised to staging.
	Used, Reserved int64
	// Start is when the span the event closes began, or a kernel's
	// start. A kernel carries it explicitly because now-Dur can differ
	// from it in the last bit, which is enough to break byte-identical
	// replay.
	Start sim.Time
	Dur   sim.Time
	Flops float64
	Scale float64

	Staged, Refetch, Forced bool
}

// Sink observes the runtime's event stream. Observe runs synchronously
// at the emitting site, at zero virtual-time cost. A sink may act on
// the runtime (the adaptive controller retunes); events emitted while
// it does reach every sink before the outer Observe call returns.
type Sink interface {
	Observe(e Event)
}

// Attach adds s to the event stream; sinks receive every event in
// attach order. Attach before the run starts: a sink attached later
// misses the events before it.
func (rt *Runtime) Attach(s Sink) { rt.sinks = append(rt.sinks, s) }

// Observed reports whether any sink is attached. Emitting sites test
// it before building an event, so an unobserved run builds none.
func (rt *Runtime) Observed() bool { return len(rt.sinks) > 0 }

// Emit hands e to every attached sink in attach order.
func (rt *Runtime) Emit(e Event) {
	for _, s := range rt.sinks {
		s.Observe(e)
	}
}

// note emits a scheduler event; callers test Observed first. Building
// the event here, out of line, keeps its 170-odd bytes out of the
// scheduler's frames, which every PE coroutine's stack holds.
//
//go:noinline
func (rt *Runtime) note(kind EventKind, lane, proc int, t *Task, start sim.Time) {
	rt.Emit(Event{Kind: kind, Lane: lane, Proc: proc, Task: t, Start: start})
}
