package core

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/ring"
	"github.com/hetmem/hetmem/internal/sim"
)

// depRef is one resolved data dependence of a task, with the current
// staging attempt's flags for it.
type depRef struct {
	h        *Handle
	mode     charm.AccessMode
	pinned   bool
	claimed  bool // this attempt holds a claim on the dep's block
	reserved bool // this attempt reserved capacity for the dep
}

// OOCTask is the paper's out-of-core task wrapper: the object, its
// input message and its annotated data dependences, encapsulated during
// pre-processing.
type OOCTask struct {
	m  *Manager
	pe *charm.PE
	t  *charm.Task

	deps     []depRef
	depBytes int64
}

// newOOCTask resolves a charm task's declared dependences into managed
// handles.
func newOOCTask(m *Manager, pe *charm.PE, t *charm.Task) *OOCTask {
	ot := &OOCTask{m: m, pe: pe, t: t, deps: make([]depRef, len(t.Deps))}
	for i, d := range t.Deps {
		h, ok := d.Handle.(*Handle)
		if !ok {
			panic(fmt.Sprintf("core: task %s depends on foreign handle %T", t, d.Handle))
		}
		if h.mgr != m {
			panic(fmt.Sprintf("core: task %s depends on handle %q from another manager", t, h.name))
		}
		ot.deps[i] = depRef{h: h, mode: d.Mode}
		ot.depBytes += h.size
	}
	return ot
}

// Task returns the wrapped charm task.
func (ot *OOCTask) Task() *charm.Task { return ot.t }

// PE returns the task's home PE.
func (ot *OOCTask) PE() *charm.PE { return ot.pe }

// ready reports whether every dependence is resident in HBM right now.
func (ot *OOCTask) ready() bool {
	for _, d := range ot.deps {
		if !d.h.resident() {
			return false
		}
	}
	return true
}

// pinAll pins every dependence (used on the fast path when all blocks
// are already resident). Pins must be balanced by unpinAll.
func (ot *OOCTask) pinAll() {
	for i := range ot.deps {
		if d := &ot.deps[i]; !d.pinned {
			d.h.pin()
			d.pinned = true
		}
	}
}

// unpinAll releases every pin the task holds.
func (ot *OOCTask) unpinAll() {
	for i := range ot.deps {
		if d := &ot.deps[i]; d.pinned {
			d.h.unpin()
			d.pinned = false
		}
	}
}

// staging is a task's staging in progress, as a stage of a
// sim.Proc.Drive step. Staging makes all of a task's dependences
// resident and pinned, or none at all.
//
// Protocol, all in one atomic virtual-time section:
//  1. pin every block already in HBM (free — the space is in use);
//  2. claim every non-resident block; the FIRST claimant of a block
//     reserves HBM capacity for it, later claimants count on that
//     fetch, so concurrent tasks sharing read-only blocks (matmul rows
//     and columns) do not multiply the capacity demand;
//  3. reserve the total atomically, reclaiming dead resident blocks
//     with makeRoom if it does not fit; if that fails, back out
//     completely (no pins, no claims kept) and report false for a
//     later retry.
//
// Then the fetch phase migrates the claimed blocks; fetching a block
// someone else is migrating just waits on its lock. Reserving the full
// remaining dependence footprint before the first fetch means a task
// that starts fetching always finishes staging, so concurrent IO
// threads cannot deadlock holding partial dependence sets.
type staging struct {
	at   stagingStage
	ot   *OOCTask
	lane int
	need int64
	i    int  // the dependence being fetched
	ok   bool // the result: every dependence is pinned
}

// stagingStage is where a staging is in its sequence.
type stagingStage uint8

const (
	stageRoom  stagingStage = iota // makeRoom for the reservation
	stageFetch                     // fetch the claimed dependences
	stageMove                      // dependence i's fetch is under way
)

// startStage pins and claims ot's dependences and sets w's staging of
// ot on lane going.
func (w *mover) startStage(ot *OOCTask, lane int) {
	st := &w.st
	*st = staging{ot: ot, lane: lane, at: stageFetch}
	for i := range ot.deps {
		d := &ot.deps[i]
		if d.pinned {
			continue
		}
		h := d.h
		if h.resident() {
			h.pin()
			d.pinned = true
			continue
		}
		d.claimed = true
		h.claim(1)
		if h.claims == 1 {
			d.reserved = true
			st.need += h.size
		}
	}
	if st.need == 0 {
		return
	}
	if !w.m.hbmFits(st.need) {
		w.startRoom(lane, st.need)
		st.at = stageRoom
		return
	}
	w.m.reserve(st.need)
}

// stageStep runs w's staging until w's process must park, and reports
// false, or until it is over, and reports true with st.ok set.
func (w *mover) stageStep() bool {
	m, st := w.m, &w.st
	ot := st.ot
	for {
		switch st.at {
		case stageRoom:
			if !w.roomStep() {
				return false
			}
			if !w.room.ok {
				// Nothing was granted: clear bookkeeping without
				// refunding.
				m.Stats.StageRetries++
				if m.rt.Observed() {
					m.noteTask(charm.EvStageRetry, ot.t, ot.pe.ID(), st.need, false)
				}
				for j := range ot.deps {
					ot.dropClaim(j)
				}
				ot.unpinAll()
				st.ok = false
				return true
			}
			m.reserve(st.need)
			st.at = stageFetch
		case stageFetch:
			for st.i < len(ot.deps) && ot.deps[st.i].pinned {
				st.i++
			}
			if st.i == len(ot.deps) {
				// All pinned; claims were dropped as each block landed.
				st.ok = true
				return true
			}
			d := &ot.deps[st.i]
			w.startFetch(st.lane, d.h, d.reserved)
			st.at = stageMove
		case stageMove:
			if !w.moveStep() {
				return false
			}
			d := &ot.deps[st.i]
			if w.mv.err != nil {
				// A non-reserved dep lost a capacity race (its
				// original claimant aborted). Refund untouched
				// reservations and back out. The fetch already
				// consumed dep i's reservation.
				d.reserved = false
				ot.backOut(st.i + 1)
				st.ok = false
				return true
			}
			d.h.pin()
			d.pinned = true
			ot.dropClaim(st.i)
			st.i++
			st.at = stageFetch
		}
	}
}

// dropClaim releases the staging claim on dep i, if held.
func (ot *OOCTask) dropClaim(i int) {
	if d := &ot.deps[i]; d.claimed {
		d.h.claim(-1)
		d.claimed = false
		d.reserved = false
	}
}

// backOut aborts a staging attempt: reservations for deps at index >=
// from are refunded (earlier ones were already consumed by fetch), and
// all pins and claims are dropped.
func (ot *OOCTask) backOut(from int) {
	for _, d := range ot.deps[from:] {
		if d.reserved {
			ot.m.refundReservation(d.h.size)
		}
	}
	for j := range ot.deps {
		ot.dropClaim(j)
	}
	ot.unpinAll()
}

// startRelease drops ot's pins and sets w's post-processing eviction
// protocol going on lane: evict every dependence whose reference count
// reached zero ("it evicts its own data dependences ... as long as they
// are not in use by other tasks, by checking the reference count").
// Under lazy eviction (the memory-pool ablation) dead blocks stay
// resident.
func (w *mover) startRelease(ot *OOCTask, lane int) {
	ot.unpinAll()
	w.rel = releasing{ot: ot, lane: lane}
	if w.m.opts.EvictLazily {
		w.rel.i = len(ot.deps)
	}
}

// releasing is a release in progress: the dependence it is at, and
// whether that dependence's eviction is under way.
type releasing struct {
	ot       *OOCTask
	lane     int
	i        int
	evicting bool
}

// releaseStep runs w's release until w's process must park, and
// reports false, or until every dead dependence is evicted, and reports
// true.
func (w *mover) releaseStep() bool {
	r := &w.rel
	for ; r.i < len(r.ot.deps); r.i++ {
		if !r.evicting {
			h := r.ot.deps[r.i].h
			if h.InUse() {
				continue
			}
			w.startEvict(r.lane, h, false)
			r.evicting = true
		}
		if !w.moveStep() {
			return false
		}
		r.evicting = false
	}
	return true
}

// waitQueue is a FIFO guarded by a virtual-time lock: the paper's
// per-PE wait queue of staged tasks (one instance total under the
// shared-queue ablation), and Multiple IO's per-PE queue of eviction
// candidates.
type waitQueue[T any] struct {
	mu    sim.Mutex
	items ring.Deque[T]
}

func newWaitQueue[T any](lockCost sim.Time) *waitQueue[T] {
	wq := &waitQueue[T]{}
	wq.mu.AcquireCost = lockCost
	return wq
}

// pushStep, for a sim.Proc.Drive step, takes p's acquisition of the
// queue lock one step on from *s and reports false while p must park
// for it, then appends x (worker side: "the worker thread locks the
// corresponding PE's wait queue and adds the task") and reports true
// with the resulting depth, so callers can record queue-depth metrics
// without a second lock round-trip.
func (wq *waitQueue[T]) pushStep(p *sim.Proc, s *sim.LockStep, x T) (int, bool) {
	if !wq.mu.Acquire(p, s) {
		return 0, false
	}
	wq.items.PushBack(x)
	n := wq.items.Len()
	wq.mu.Unlock(p)
	return n, true
}

// popStep, for a sim.Proc.Drive step, takes p's acquisition of the
// queue lock one step on from *s and reports false while p must park
// for it, then removes the first item (the zero T when the queue is
// empty) and reports true.
func (wq *waitQueue[T]) popStep(p *sim.Proc, s *sim.LockStep) (T, bool) {
	var x T
	if !wq.mu.Acquire(p, s) {
		return x, false
	}
	if wq.items.Len() > 0 {
		x = wq.items.PopFront()
	}
	wq.mu.Unlock(p)
	return x, true
}

// popHeld removes and returns the first item of a non-empty queue whose
// lock p holds from a scan hit, and releases the lock: the tail of
// popStep.
func (wq *waitQueue[T]) popHeld(p *sim.Proc) T {
	x := wq.items.PopFront()
	wq.mu.Unlock(p)
	return x
}

// pushFrontStep, for a sim.Proc.Drive step, takes p's acquisition of
// the queue lock one step on from *s and reports false while p must
// park for it, then reinserts x at the head, so FIFO order is preserved
// across capacity stalls, and reports true.
func (wq *waitQueue[T]) pushFrontStep(p *sim.Proc, s *sim.LockStep, x T) bool {
	if !wq.mu.Acquire(p, s) {
		return false
	}
	wq.items.PushFront(x)
	wq.mu.Unlock(p)
	return true
}

// lenStep, for a sim.Proc.Drive step, takes p's acquisition of the
// queue lock one step on from *s and reports false while p must park
// for it, then reports the queue length and true. Callers make real
// scheduling decisions from it (No IO's FIFO-fairness gate), so it must
// observe a consistent queue, and it pays the same lock cost every
// other queue operation does.
func (wq *waitQueue[T]) lenStep(p *sim.Proc, s *sim.LockStep) (int, bool) {
	if !wq.mu.Acquire(p, s) {
		return 0, false
	}
	n := wq.items.Len()
	wq.mu.Unlock(p)
	return n, true
}

// quiescentItems snapshots the queue contents without the lock. Only
// the engine's quiesce hook may call it: with the event queue drained
// no process is running, so the unguarded read cannot race.
func (wq *waitQueue[T]) quiescentItems() []T {
	var items []T
	for i := 0; i < wq.items.Len(); i++ {
		items = append(items, wq.items.At(i))
	}
	return items
}

// taskQueues is a strategy's wait queues of staged tasks, indexed by
// queue.
type taskQueues []*waitQueue[*OOCTask]

// newTaskQueues returns n empty wait queues whose locks cost lockCost.
func newTaskQueues(n int, lockCost sim.Time) taskQueues {
	qs := make(taskQueues, n)
	for i := range qs {
		qs[i] = newWaitQueue[*OOCTask](lockCost)
	}
	return qs
}

// queued snapshots every task parked in the queues, indexed by queue.
// Called only when no process is running (the engine's quiesce hook,
// or a barrier callback via retuneQuiescent), so no locks are needed.
func (qs taskQueues) queued() [][]*OOCTask {
	out := make([][]*OOCTask, len(qs))
	for i, wq := range qs {
		out[i] = wq.quiescentItems()
	}
	return out
}

// queueSweep probes a strategy's wait queues for a sim.Scan that finds
// the non-empty ones: it takes every queue's lock in turn, as a
// length check would, but stops only at the non-empty ones. The probes
// are bound once, so a scan allocates nothing.
type queueSweep struct {
	lock     func(i int) *sim.Mutex
	nonEmpty func(i int) bool
}

func newQueueSweep(wqs taskQueues) queueSweep {
	return queueSweep{
		lock:     func(i int) *sim.Mutex { return &wqs[i].mu },
		nonEmpty: func(i int) bool { return wqs[i].items.Len() > 0 },
	}
}
