package trace

import (
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// Recorder captures the runtime's event stream into a Capture: it is a
// charm.Sink that keeps the task, data-movement, retune and controller
// decision events, and Attach adds it to the stream. Recording adds
// zero virtual time, so a traced run produces the same schedule as an
// untraced one.
//
// Task IDs are assigned at send time, monotonically — replaying a
// capture re-sends tasks in ID order, which reproduces the IDs and
// makes recorded and replayed schedules directly comparable.
type Recorder struct {
	mg  *core.Manager
	eng *sim.Engine
	cap *Capture
	seq int64

	nextID int64
	// ids is indexed by Task.Seq (dense send-order numbering from the
	// runtime); -1 means not yet assigned. Trace IDs are still handed
	// out in first-sight order, so captures are byte-identical to the
	// map-based recorder's.
	ids []int64
	// running is indexed by Proc.ID(); id -1 marks a free slot.
	running []runRef
	tasks   int64
	// tiers is the machine's chain in near-to-far node-name order,
	// recorded in the meta header. multiTier gates the Evict Dst field:
	// on a two-tier machine the destination is unambiguous and omitted,
	// keeping classic captures free of the field.
	tiers     []string
	multiTier bool

	finished bool
}

// runRef ties a PE scheduler process to the task it is executing, so
// kernel events can be attributed to tasks.
type runRef struct {
	id int64
	pe int
}

// NewRecorder builds a recorder for mg and emits the meta event. Call
// Attach before the run starts.
func NewRecorder(mg *core.Manager) *Recorder {
	return NewSessionRecorder(mg, "", "")
}

// NewSessionRecorder is NewRecorder with the serve-layer session and
// tenant identity stamped into the meta event, so captures pulled out
// of a multi-session directory remain attributable. Empty labels
// produce a meta event identical to NewRecorder's.
func NewSessionRecorder(mg *core.Manager, session, tenant string) *Recorder {
	rt := mg.Runtime()
	r := &Recorder{
		mg:  mg,
		eng: rt.Engine(),
		cap: &Capture{},
	}
	for _, n := range rt.Machine().Chain() {
		r.tiers = append(r.tiers, n.Name)
	}
	r.multiTier = len(r.tiers) > 2
	r.emit(&Meta{
		Version: Version,
		NumPEs:  rt.NumPEs(),
		Seed:    r.eng.Seed(),
		Session: session,
		Tenant:  tenant,
		Tiers:   r.tiers,
		Knobs:   KnobsOf(mg.Options()),
		Params:  rt.Params(),
		Spec:    rt.Machine().Spec,
	})
	return r
}

// Attach adds the recorder to the runtime's event stream. Sinks
// attached before it (a controller, say) see each event first.
func (r *Recorder) Attach() { r.mg.Runtime().Attach(r) }

// emit stamps and appends one event.
func (r *Recorder) emit(e Event) {
	h := e.header()
	h.K = e.Kind()
	h.Seq = r.seq
	h.T = r.eng.Now()
	r.seq++
	r.cap.Events = append(r.cap.Events, e)
}

// taskID returns the send-time ID of t, assigning one if the task was
// created before the recorder attached.
func (r *Recorder) taskID(t *charm.Task) int64 {
	for int(t.Seq) >= len(r.ids) {
		r.ids = append(r.ids, -1)
	}
	id := r.ids[t.Seq]
	if id < 0 {
		id = r.nextID
		r.nextID++
		r.ids[t.Seq] = id
	}
	return id
}

// Observe implements charm.Sink. It drops the kinds the capture format
// does not carry: idle, scheduling overhead, lock wait and the pressure,
// queue-depth and inflight samples.
func (r *Recorder) Observe(e charm.Event) {
	switch e.Kind {
	case charm.EvSend:
		r.send(e.Task)
	case charm.EvRunStart:
		id := r.taskID(e.Task)
		r.setRunning(e.Proc, runRef{id: id, pe: e.Lane})
		r.emit(&RunStart{ID: id, PE: e.Lane})
	case charm.EvRunEnd:
		r.emit(&RunEnd{ID: r.taskID(e.Task), PE: e.Lane})
		r.setRunning(e.Proc, runRef{id: -1, pe: -1})
	case charm.EvHandle:
		r.emit(&HandleDecl{Block: e.Name, Bytes: e.Bytes, Node: e.Tier})
	case charm.EvAdmit:
		r.emit(&Admit{ID: r.taskID(e.Task), PE: e.Lane, Bytes: e.Bytes, Staged: e.Staged})
	case charm.EvFetchStart:
		r.emit(&FetchStart{Lane: e.Lane, Block: e.Name, Bytes: e.Bytes})
	case charm.EvFetchEnd:
		// Tier is the node the bytes came from: on longer chains a
		// refetch of a one-level demotion reads from DDR while first
		// touches come from the bottom tier.
		r.emit(&FetchEnd{Lane: e.Lane, Block: e.Name, Bytes: e.Bytes, Dur: e.Dur, Src: e.Tier, Refetch: e.Refetch})
	case charm.EvEvict:
		ev := &Evict{Lane: e.Lane, Block: e.Name, Bytes: e.Bytes, Dur: e.Dur, Forced: e.Forced, Policy: e.Policy}
		// The destination tier carries information only on chains
		// deeper than two.
		if r.multiTier {
			ev.Dst = e.Tier
		}
		r.emit(ev)
	case charm.EvStageRetry:
		r.emit(&Pressure{PE: e.Lane, Task: e.Task.String(), Need: e.Bytes, Used: e.Used, Reserved: e.Reserved, Budget: r.mg.HBMBudget()})
	case charm.EvKernel:
		// Kernels run inside entry methods on PE scheduler processes;
		// attribution falls back to -1 for kernels issued outside any
		// traced task.
		ref := runRef{id: -1, pe: -1}
		if e.Proc < len(r.running) {
			ref = r.running[e.Proc]
		}
		r.emit(&Kernel{ID: ref.id, PE: ref.pe, Flops: e.Flops, Scale: e.Scale, Start: e.Start, Dur: e.Dur})
	case charm.EvRetune:
		r.emit(&Retune{Knobs: KnobsOf(r.mg.Options())})
	case charm.EvTaskDone:
		r.emit(&TaskDone{ID: r.taskID(e.Task)})
	case charm.EvDecision:
		r.emit(&Adapt{Window: e.N, Action: e.Name})
	}
}

// send records a task's creation.
func (r *Recorder) send(t *charm.Task) {
	ev := &Send{
		ID:       r.taskID(t),
		Arr:      t.Elem.Array().Name(),
		Idx:      t.Elem.Index,
		Entry:    t.Entry.Name,
		PE:       t.Elem.PE,
		From:     t.Msg.From,
		Prefetch: t.Entry.Prefetch,
	}
	for _, d := range t.Deps {
		ev.Deps = append(ev.Deps, Dep{
			Block: d.Handle.BlockName(),
			Bytes: d.Handle.Size(),
			Mode:  d.Mode.String(),
		})
	}
	r.tasks++
	r.emit(ev)
}

// setRunning stores the task a scheduler process is executing, growing
// the pid-indexed table on demand.
func (r *Recorder) setRunning(pid int, ref runRef) {
	for pid >= len(r.running) {
		r.running = append(r.running, runRef{id: -1, pe: -1})
	}
	r.running[pid] = ref
}

// LaneAssigned records one multi-tenant scheduler window's IO-lane
// verdict for this session. The serve scheduler calls it from its
// share-assignment step; nothing else emits the kind.
func (r *Recorder) LaneAssigned(window, lanes, total, active int) {
	r.emit(&LaneAssign{Window: window, Lanes: lanes, Total: total, Active: active})
}

// Finish appends the stats footer (once; later calls are no-ops) and
// detaches nothing — the recorder may keep observing, but a finished
// capture should be treated as complete.
func (r *Recorder) Finish() {
	if r.finished {
		return
	}
	r.finished = true
	st := &Stats{
		Makespan:        r.eng.Now(),
		Tasks:           r.tasks,
		Fetches:         r.mg.Stats.Fetches,
		Refetches:       r.mg.Stats.Refetches,
		Evictions:       r.mg.Stats.Evictions,
		ForcedEvictions: r.mg.Stats.ForcedEvictions,
		StageRetries:    r.mg.Stats.StageRetries,
		BytesFetched:    r.mg.Stats.BytesFetched,
		BytesEvicted:    r.mg.Stats.BytesEvicted,
		TasksStaged:     r.mg.Stats.TasksStaged,
		TasksInline:     r.mg.Stats.TasksInline,
	}
	r.emit(st)
}

// Capture finalises (if needed) and returns the recorded event stream.
func (r *Recorder) Capture() *Capture {
	r.Finish()
	return r.cap
}
