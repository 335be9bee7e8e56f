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

// stage makes all dependences resident and pinned, or none at all.
//
// Protocol, all in one atomic virtual-time section:
//  1. pin every block already in HBM (free — the space is in use);
//  2. claim every non-resident block; the FIRST claimant of a block
//     reserves HBM capacity for it, later claimants count on that
//     fetch, so concurrent tasks sharing read-only blocks (matmul rows
//     and columns) do not multiply the capacity demand;
//  3. if the total reservation fails, back out completely (no pins, no
//     claims kept) and return false for a later retry.
//
// Then the fetch phase migrates the claimed blocks; fetching a block
// someone else is migrating just waits on its lock. Reserving before
// the first fetch means a task that starts fetching always finishes
// staging, so concurrent IO threads cannot deadlock holding partial
// dependence sets.
func (ot *OOCTask) stage(p *sim.Proc, lane int) bool {
	m := ot.m
	var need int64
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
			need += h.size
		}
	}
	if need > 0 && !m.reserveCapacity(p, lane, need) {
		// Nothing was granted: clear bookkeeping without refunding.
		m.Stats.StageRetries++
		if m.rt.Observed() {
			m.noteTask(charm.EvStageRetry, ot.t, ot.pe.ID(), need, false)
		}
		for j := range ot.deps {
			ot.dropClaim(j)
		}
		ot.unpinAll()
		return false
	}
	for i := range ot.deps {
		d := &ot.deps[i]
		if d.pinned {
			continue
		}
		if err := m.fetch(p, lane, d.h, d.reserved); err != nil {
			// A non-reserved dep lost a capacity race (its original
			// claimant aborted). Refund untouched reservations and
			// back out. fetch already consumed dep i's reservation.
			d.reserved = false
			ot.backOut(i + 1)
			return false
		}
		d.h.pin()
		d.pinned = true
		ot.dropClaim(i)
	}
	// All pinned; claims were dropped as each block landed.
	return true
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

// release runs the post-processing eviction protocol: drop the task's
// pins, then evict every dependence whose reference count reached zero
// ("it evicts its own data dependences ... as long as they are not in
// use by other tasks, by checking the reference count"). Under lazy
// eviction (the memory-pool ablation) dead blocks stay resident.
func (ot *OOCTask) release(p *sim.Proc, lane int) {
	ot.unpinAll()
	if ot.m.opts.EvictLazily {
		return
	}
	for _, d := range ot.deps {
		if !d.h.InUse() {
			ot.m.evict(p, lane, d.h, false)
		}
	}
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

// push appends x (worker side: "the worker thread locks the
// corresponding PE's wait queue and adds the task") and returns the
// resulting depth, so callers can record queue-depth metrics without a
// second lock round-trip.
func (wq *waitQueue[T]) push(p *sim.Proc, x T) int {
	wq.mu.Lock(p)
	wq.items.PushBack(x)
	n := wq.items.Len()
	wq.mu.Unlock(p)
	return n
}

// pop removes and returns the first item, or the zero T when empty.
func (wq *waitQueue[T]) pop(p *sim.Proc) T {
	var s sim.LockStep
	for {
		if x, ok := wq.popStep(p, &s); ok {
			return x
		}
		p.Suspend()
	}
}

// popStep is pop for a sim.Proc.Drive step: it takes p's acquisition of
// the queue lock one step on from *s and reports false while p must
// park for it, then pops as pop does and reports true.
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
// lock p holds from a sweep hit, and releases the lock: the tail of pop.
func (wq *waitQueue[T]) popHeld(p *sim.Proc) T {
	x := wq.items.PopFront()
	wq.mu.Unlock(p)
	return x
}

// pushFront reinserts a partially staged task at the head so FIFO order
// is preserved across capacity stalls.
func (wq *waitQueue[T]) pushFront(p *sim.Proc, x T) {
	var s sim.LockStep
	for !wq.pushFrontStep(p, &s, x) {
		p.Suspend()
	}
}

// pushFrontStep is pushFront for a sim.Proc.Drive step: it takes p's
// acquisition of the queue lock one step on from *s and reports false
// while p must park for it, then reinserts x and reports true.
func (wq *waitQueue[T]) pushFrontStep(p *sim.Proc, s *sim.LockStep, x T) bool {
	if !wq.mu.Acquire(p, s) {
		return false
	}
	wq.items.PushFront(x)
	wq.mu.Unlock(p)
	return true
}

// len returns the queue length under the queue lock. Callers make real
// scheduling decisions from it (NoIO's FIFO-fairness gate, MultiIO's
// cross-PE kicks), so it must observe a consistent queue, and it pays
// the same lock cost every other queue operation does.
func (wq *waitQueue[T]) len(p *sim.Proc) int {
	wq.mu.Lock(p)
	n := wq.items.Len()
	wq.mu.Unlock(p)
	return n
}

// scan visits each queued item with its queue position under the queue
// lock (the Lookahead eviction policy's dependence walk). The callback
// must not touch this queue or block.
func (wq *waitQueue[T]) scan(p *sim.Proc, visit func(pos int, x T)) {
	wq.mu.Lock(p)
	for i := 0; i < wq.items.Len(); i++ {
		visit(i, wq.items.At(i))
	}
	wq.mu.Unlock(p)
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

// scanWaiting visits every queued task with its position in its queue,
// under the queue locks — the Lookahead eviction policy's view of
// upcoming declared uses. Callers must not hold any wait-queue lock.
func (qs taskQueues) scanWaiting(p *sim.Proc, visit func(pos int, ot *OOCTask)) {
	for _, wq := range qs {
		wq.scan(p, visit)
	}
}

// queueSweep finds a strategy's non-empty wait queues with
// sim.Proc.Sweep: it takes every queue's lock in turn, as len would, but
// resumes the sweeping process only at the non-empty ones. Its probes
// are bound once, so a sweep allocates nothing; Multiple IO's search
// scans with them too, through a sim.Scan of its own.
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

// each calls hit(i), in order, for every queue i in [from, to) that is
// non-empty when swept, with its lock held; hit must release it.
func (qs queueSweep) each(p *sim.Proc, from, to int, hit func(i int)) {
	for i := from; i < to; i++ {
		if i = p.Sweep(i, to, qs.lock, qs.nonEmpty); i < to {
			hit(i)
		}
	}
}
