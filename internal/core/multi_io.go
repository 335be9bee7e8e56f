package core

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// multiIO is the paper's "Multiple queues, Multiple IO threads"
// strategy: one IO thread per PE (placed on the hyperthread sibling so
// no extra physical cores are used), one wait queue per PE, and fully
// asynchronous fetch AND eviction — a completing task only drops its
// pins and hands its dead blocks to its PE's IO thread, so neither
// movement direction blocks a worker. This is the configuration whose
// Projections timeline (Fig. 5b/6b) shows the pre-processing overhead
// masked.
type multiIO struct {
	m      *Manager
	wqs    taskQueues
	sweep  queueSweep
	evictq []*waitQueue[*Handle] // eviction candidates per PE
	ioMu   []sim.Mutex
	ioCond []*sim.Cond
	work   []bool
	// inflight counts staged-but-uncompleted tasks per PE, bounded by
	// Options.PrefetchDepth when non-zero. Guarded by ioMu[pe]: the IO
	// thread increments it while staging and the worker decrements it
	// in complete, so an unguarded read could admit a task past the
	// bound between the worker's decrement and its kick.
	inflight []int
}

func newMultiIO(m *Manager) *multiIO {
	n := m.rt.NumPEs()
	lockCost := m.rt.Params().LockCost
	s := &multiIO{
		m:        m,
		wqs:      newTaskQueues(n, lockCost),
		evictq:   make([]*waitQueue[*Handle], n),
		ioMu:     make([]sim.Mutex, n),
		ioCond:   make([]*sim.Cond, n),
		work:     make([]bool, n),
		inflight: make([]int, n),
	}
	for i := 0; i < n; i++ {
		s.evictq[i] = newWaitQueue[*Handle](lockCost)
		s.ioMu[i].AcquireCost = lockCost
		s.ioCond[i] = sim.NewCond(&s.ioMu[i])
		w := &ioSearch{s: s, i: i, lane: n + i} // lane: the SMT sibling of PE i
		m.rt.Engine().Spawn(fmt.Sprintf("IO-PE%d", i), func(q *sim.Proc) {
			w.mover = mover{m: m, p: q}
			q.Drive(w.advance)
		})
	}
	s.sweep = newQueueSweep(s.wqs)
	return s
}

func (s *multiIO) name() string { return "multi-io" }

func (s *multiIO) queues() taskQueues { return s.wqs }

// kickStep wakes PE i's IO thread, as a stage of a sim.Proc.Drive
// step: it takes p's acquisition of ioMu[i] one step on from *ls and
// reports false while p must park for it, then marks the work,
// unlocks, signals and reports true.
func (s *multiIO) kickStep(p *sim.Proc, ls *sim.LockStep, i int) bool {
	if !s.ioMu[i].Acquire(p, ls) {
		return false
	}
	s.work[i] = true
	s.ioMu[i].Unlock(p)
	s.ioCond[i].Signal()
	return true
}

// admit: "When a task arrives at its preprocessing step, it simply adds
// itself to the corresponding PE's wait queue. The IO thread is then
// woken up by the worker thread."
func (s *multiIO) admit(w *worker) bool {
	pe := w.pe.ID()
	if w.at == 0 {
		depth, ok := s.wqs[pe].pushStep(w.p, &w.lock, w.ot)
		if !ok {
			return false
		}
		if s.m.rt.Observed() {
			s.m.noteQueue(charm.EvQueueDepth, pe, depth)
		}
		s.m.Stats.TasksStaged++
		w.at = 1
	}
	if !s.kickStep(w.p, &w.lock, pe) {
		return false
	}
	w.owned = true
	return true
}

// Where a Multiple IO complete is in its sequence.
const (
	mcInflight uint8 = iota // decrement the in-flight count
	mcCheck                 // check dependence i
	mcPush                  // hand dependence i to the IO thread
	mcKick                  // wake the IO thread
)

func (s *multiIO) complete(w *worker) bool {
	pe, p, ot := w.pe.ID(), w.p, w.ot
	for {
		switch w.at {
		case mcInflight:
			// The in-flight count is shared with the PE's IO thread,
			// which reads it against the prefetch-depth bound;
			// decrement under the same mutex so the bound is never
			// transiently over-admitted.
			if !s.ioMu[pe].Acquire(p, &w.lock) {
				return false
			}
			s.inflight[pe]--
			if s.inflight[pe] < 0 {
				panic("core: multiIO inflight underflow")
			}
			s.ioMu[pe].Unlock(p)
			// Drop pins now (reference counts must be exact), but hand
			// the data movement to the IO thread so eviction is
			// asynchronous too.
			ot.unpinAll()
			w.at = mcCheck
			if s.m.opts.EvictLazily {
				w.at = mcKick
			}
		case mcCheck:
			switch {
			case w.i == len(ot.deps):
				w.at = mcKick
			case ot.deps[w.i].h.InUse():
				w.i++
			default:
				w.at = mcPush
			}
		case mcPush:
			if _, ok := s.evictq[pe].pushStep(p, &w.lock, ot.deps[w.i].h); !ok {
				return false
			}
			w.i++
			w.at = mcCheck
		case mcKick:
			// "It then wakes up the IO thread for the PE, since it has
			// evicted data, allowing more tasks to have their data
			// prefetched."
			return s.kickStep(p, &w.lock, pe)
		}
	}
}

// ioSearch is PE i's IO thread, as one sim.Proc.Drive step that never
// returns true: evictions first (freeing capacity), then stage waiting
// tasks until HBM fills, then sleep. The thread resumes only at its
// first grant. Its step runs the blocking sequence
//
//	for {
//		ioMu[i].Lock; for !work[i] { ioCond[i].Wait }; work[i] = false; ioMu[i].Unlock
//		for { h := evictq[i].pop(); if h == nil { break }; evict h }
//		depth := PrefetchDepth
//		for {
//			// Claim an in-flight slot under the mutex before staging;
//			// staging parks on locks and migrations, and the bound must
//			// hold across those waits.
//			ioMu[i].Lock; claim a slot if one is free; ioMu[i].Unlock
//			if no slot was free { break }
//			ot := wqs[i].pop()
//			if ot == nil { release the slot; break }
//			if ot.stage() { ot.pe.PushRun(ot.t); continue }
//			release the slot; wqs[i].pushFront(ot); break
//		}
//		if a block was evicted or a task staged {
//			kick the IO thread of every other non-empty wait queue
//		}
//	}
//
// split at its parks; releasing a slot is ioMu[i].Lock,
// inflight[i]--, ioMu[i].Unlock. The wait-queue pop and pushFront, the
// PushRun, each kick, the eviction and the staging run as the step
// forms (popStep, pushFrontStep, PushRunStep, kickStep, moveStep,
// stageStep) that their other callers use too, so each protocol has
// one copy. An eviction re-checks the block under its own protocol:
// the block may have been re-pinned by a newly staged task since it was
// queued, in which case the eviction moves nothing.
//
// The kick is cross-PE liveness: space freed here — by explicit
// eviction or by staging-triggered reclamation (makeRoom under lazy
// eviction) — may be what another PE's stalled IO thread is waiting
// for. All IO threads are "likely working in parallel, hence there is
// no starvation problem" under symmetric load; the explicit kick makes
// it a guarantee. After an eviction or a staged task, the search scans
// every other wait queue under its lock with a sim.Scan, as
// sim.Proc.Sweep does, and kicks the thread of each one it finds
// non-empty.
type ioSearch struct {
	mover
	s    *multiIO
	i    int
	lane int

	at   ioStage
	lock sim.LockStep // the acquisition under way
	// then is the stage after a slot release: the kick, or pushFront
	// of a task that failed to stage.
	then ioStage

	evict   *Handle  // the block being evicted
	before  int64    // its eviction count before this eviction
	ot      *OOCTask // the task being staged, then pushed
	evicted bool     // an eviction since the work wait
	nstaged int      // tasks staged since the work wait
	depth   int      // the PrefetchDepth bound of this staging pass

	scan   sim.Scan // the kick scan over wait queues [.., scanTo)
	scanTo int
	kick   int // the queue whose IO thread is being kicked
}

// ioStage is where an ioSearch is in its sequence.
type ioStage uint8

const (
	ioWork      ioStage = iota // wait for work under ioMu[i]
	ioEvictPop                 // pop the eviction queue
	ioEvict                    // evict the popped block
	ioClaim                    // claim an in-flight slot
	ioPop                      // pop the wait queue
	ioStaging                  // stage ot
	ioPushRun                  // push the staged ot to its PE's run queue
	ioRelease                  // release the claimed slot, then go on to then
	ioPushFront                // put back ot, which failed to stage
	ioKick                     // decide whether to kick the other threads
	ioScan                     // scan the other wait queues
	ioKickOne                  // kick the thread of queue kick
)

// advance runs the thread until it must park, and reports false; it
// never reports true.
func (w *ioSearch) advance() bool {
	s, q, i := w.s, w.p, w.i
	for {
		switch w.at {
		case ioWork:
			if !s.ioMu[i].Acquire(q, &w.lock) {
				return false
			}
			if !s.work[i] {
				s.ioCond[i].Join(q)
				return false
			}
			s.work[i] = false
			s.ioMu[i].Unlock(q)
			w.evicted, w.nstaged = false, 0
			w.at = ioEvictPop
		case ioEvictPop:
			h, ok := s.evictq[i].popStep(q, &w.lock)
			if !ok {
				return false
			}
			if h == nil {
				// The bound holds for the whole staging pass, even if a
				// retune changes it meanwhile.
				w.depth = s.m.opts.PrefetchDepth
				w.at = ioClaim
				continue
			}
			w.evict, w.before = h, h.Evictions
			w.startEvict(w.lane, h, false)
			w.at = ioEvict
		case ioEvict:
			if !w.moveStep() {
				return false
			}
			if w.evict.Evictions != w.before {
				w.evicted = true
			}
			w.evict = nil
			w.at = ioEvictPop
		case ioClaim:
			if !s.ioMu[i].Acquire(q, &w.lock) {
				return false
			}
			depth := w.depth
			free := depth == 0 || s.inflight[i] < depth
			if free {
				s.inflight[i]++
				if s.m.rt.Observed() {
					s.m.noteQueue(charm.EvInflight, i, s.inflight[i])
				}
				s.m.aud.CheckInflight(i, s.inflight[i], depth)
			}
			s.ioMu[i].Unlock(q)
			if w.at = ioPop; !free {
				w.at = ioKick
			}
		case ioPop:
			ot, ok := s.wqs[i].popStep(q, &w.lock)
			if !ok {
				return false
			}
			if ot == nil {
				w.at, w.then = ioRelease, ioKick
				continue
			}
			w.ot, w.at = ot, ioStaging
			w.startStage(ot, w.lane)
		case ioStaging:
			if !w.stageStep() {
				return false
			}
			if w.st.ok {
				w.at = ioPushRun
			} else {
				w.at, w.then = ioRelease, ioPushFront
			}
		case ioPushRun:
			if !w.ot.pe.PushRunStep(q, &w.lock, w.ot.t) {
				return false
			}
			w.ot = nil
			w.nstaged++
			w.at = ioClaim
		case ioRelease:
			if !s.ioMu[i].Acquire(q, &w.lock) {
				return false
			}
			s.inflight[i]--
			s.ioMu[i].Unlock(q)
			w.at = w.then
		case ioPushFront:
			if !s.wqs[i].pushFrontStep(q, &w.lock, w.ot) {
				return false
			}
			w.ot = nil
			w.at = ioKick
		case ioKick:
			if !w.evicted && w.nstaged == 0 {
				w.at = ioWork
				continue
			}
			w.scanFrom(0, i)
		case ioScan:
			if !w.scan.Step(q) {
				return false
			}
			j := w.scan.Slot()
			switch {
			case j < w.scanTo:
				s.wqs[j].mu.Unlock(q)
				w.kick, w.at = j, ioKickOne
			case j < len(s.wqs):
				w.scanFrom(i+1, len(s.wqs))
			default:
				w.at = ioWork
			}
		case ioKickOne:
			if !s.kickStep(q, &w.lock, w.kick) {
				return false
			}
			w.scanFrom(w.kick+1, w.scanTo)
		}
	}
}

// scanFrom starts the kick scan over wait queues [from, to).
func (w *ioSearch) scanFrom(from, to int) {
	w.scan.Start(from, to, w.s.sweep.lock, w.s.sweep.nonEmpty)
	w.scanTo, w.at = to, ioScan
}
