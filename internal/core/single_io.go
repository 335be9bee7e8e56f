package core

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// singleIO is the paper's "Multiple queues, Single IO thread" strategy:
// one wait queue per PE (or one shared queue under the X2 ablation),
// served round-robin by a single IO thread that prefetches dependences
// and moves ready tasks to the PEs' run queues. Workers evict their own
// dependences in post-processing and wake the IO thread afterwards.
//
// The per-PE queues exist to avoid load imbalance: "with a single wait
// queue, it is possible that the IO thread prefetches data for n tasks
// on PE0 instead of fetching data for n tasks on n PEs". The X3
// ablation raises the thread count: every IO thread round-robins over
// all queues.
type singleIO struct {
	m     *Manager
	wqs   taskQueues
	sweep queueSweep

	ioMu   sim.Mutex
	ioCond *sim.Cond
	// gen counts kicks. Each IO thread remembers the last generation it
	// served and re-runs a pass while gen has moved past it. A single
	// shared boolean is wrong with IOThreads > 1 (the X3 ablation): the
	// first thread to wake consumes the flag, and a sibling thread that
	// was mid-pass — holding a popped task it is about to push back —
	// re-waits even though the kick was meant for work it still owes,
	// losing the wakeup and stranding the task.
	gen uint64

	// active is the number of IO threads currently serving passes;
	// spawned is how many processes exist. setIOThreads retargets the
	// pool online (the adaptive controller's IOThreads knob): surplus
	// threads park on the condition variable, missing ones are spawned
	// on demand.
	active  int
	spawned int
}

func newSingleIO(m *Manager) *singleIO {
	s := &singleIO{m: m}
	s.ioMu.AcquireCost = m.rt.Params().LockCost
	s.ioCond = sim.NewCond(&s.ioMu)
	nq := m.rt.NumPEs()
	if m.opts.SharedWaitQueue {
		nq = 1
	}
	s.wqs = newTaskQueues(nq, m.rt.Params().LockCost)
	s.sweep = newQueueSweep(s.wqs)
	threads := m.opts.IOThreads
	if threads <= 0 {
		threads = 1
	}
	s.ensureSpawned(threads)
	s.active = threads
	return s
}

// ensureSpawned grows the process pool to n IO threads. Newly spawned
// threads start parked: they serve no pass until a kick moves gen.
func (s *singleIO) ensureSpawned(n int) {
	for s.spawned < n {
		w := &ioPass{s: s, id: s.spawned, lane: s.m.rt.NumPEs() + s.spawned}
		s.m.rt.Engine().Spawn(fmt.Sprintf("IO%d", w.id), func(q *sim.Proc) {
			w.mover = mover{m: s.m, p: q}
			q.Drive(w.advance)
		})
		s.spawned++
	}
}

// setIOThreads retargets the pool at n serving threads online (n <= 0
// means the mode's natural count, 1) — the adaptive controller's
// IOThreads knob. Threads beyond n park in ioPass's wait for work until
// re-enabled. Safe from any context: the counter writes are atomic in
// the cooperative simulation, the generation bump makes freshly enabled
// threads run a catch-up pass, and Broadcast needs no process.
func (s *singleIO) setIOThreads(n int) {
	if n <= 0 {
		n = 1
	}
	s.ensureSpawned(n)
	s.active = n
	s.gen++
	s.ioCond.Broadcast()
}

func (s *singleIO) name() string { return "single-io" }

func (s *singleIO) queues() taskQueues { return s.wqs }

// queueFor returns the wait queue a PE's tasks join.
func (s *singleIO) queueFor(pe int) *waitQueue[*OOCTask] {
	if len(s.wqs) == 1 {
		return s.wqs[0]
	}
	return s.wqs[pe]
}

// kickStep wakes the IO thread(s), as a stage of a sim.Proc.Drive
// step: every thread whose last served generation predates this one
// will run another pass. It takes p's acquisition of ioMu one step on
// from *ls and reports false while p must park for it, then moves gen,
// unlocks, broadcasts and reports true.
func (s *singleIO) kickStep(p *sim.Proc, ls *sim.LockStep) bool {
	if !s.ioMu.Acquire(p, ls) {
		return false
	}
	s.gen++
	s.ioMu.Unlock(p)
	s.ioCond.Broadcast()
	return true
}

// Where a Single IO admit is in its sequence.
const (
	saReady uint8 = iota // run the task inline if its blocks are resident
	saPush               // queue the task
	saKick               // wake the IO thread(s)
)

func (s *singleIO) admit(w *worker) bool {
	ot := w.ot
	pe := ot.pe.ID()
	for {
		switch w.at {
		case saReady:
			// Fast path from the paper: "A task checks if it is ready
			// to execute, i.e. if all the data dependences are in
			// INHBM; if so, the task is immediately added to the run
			// queue." Running it inline is equivalent to queueing it
			// at the head of the run queue and avoids a scheduler
			// round-trip.
			if ot.ready() {
				ot.pinAll()
				s.m.Stats.TasksInline++
				return true
			}
			w.at = saPush
		case saPush:
			depth, ok := s.queueFor(pe).pushStep(w.p, &w.lock, ot)
			if !ok {
				return false
			}
			if s.m.rt.Observed() {
				qi := 0
				if len(s.wqs) > 1 {
					qi = pe
				}
				s.m.noteQueue(charm.EvQueueDepth, qi, depth)
			}
			s.m.Stats.TasksStaged++
			w.at = saKick
		case saKick:
			if !s.kickStep(w.p, &w.lock) {
				return false
			}
			w.owned = true
			return true
		}
	}
}

// complete is post-processing: the worker evicts its own dead
// dependences, then wakes the sleeping IO thread so freed space can be
// reused.
func (s *singleIO) complete(w *worker) bool {
	if w.at == 0 {
		w.startRelease(w.ot, w.ot.pe.ID())
		w.at = 1
	}
	if w.at == 1 {
		if !w.releaseStep() {
			return false
		}
		w.at = 2
	}
	return s.kickStep(w.p, &w.lock)
}

// ioPass is one IO thread running Algorithm 1, as one sim.Proc.Drive
// step that never returns true: while space remains in HBM, pop the
// first task of each wait queue in turn, bring in its data, and move it
// to the run queue; sleep when out of tasks or capacity. The thread
// resumes only at its first grant. Its step runs the blocking sequence
//
//	for {
//		ioMu.Lock
//		for gen == seen || id >= active { ioCond.Wait }
//		seen = gen
//		ioMu.Unlock
//		for progress := true; progress; {
//			progress = false
//			for each wait queue j found non-empty under its lock {
//				ot := wqs[j].popHeld()
//				if ot.stage() {
//					push ot.t to ot.pe's run queue
//					progress = true
//				} else {
//					// HBM full: keep FIFO order and stall this
//					// queue until an eviction wakes us.
//					wqs[j].pushFront(ot)
//				}
//			}
//		}
//	}
//
// split at its parks. Each pass serves every queue once so all PEs
// advance together ("serving all PEs equally"): a sim.Scan locks each
// queue in turn and stops at each one it finds non-empty. Thread id
// parks whenever the pool is retargeted below it.
type ioPass struct {
	mover
	s        *singleIO
	id, lane int

	at       passStage
	lock     sim.LockStep // the acquisition under way
	seen     uint64       // the last generation served
	progress bool         // a task staged in this pass
	scan     sim.Scan     // the pass's scan over the wait queues
	j        int          // the queue ot came from
	ot       *OOCTask
}

// passStage is where an ioPass is in its sequence.
type passStage uint8

const (
	passWork      passStage = iota // wait for a kick under ioMu
	passScan                       // scan for the next non-empty queue
	passStaging                    // stage ot
	passPushRun                    // push the staged ot to its PE's run queue
	passPushFront                  // put back ot, which failed to stage
)

// advance runs the thread until it must park, and reports false; it
// never reports true.
func (w *ioPass) advance() bool {
	s, q := w.s, w.p
	for {
		switch w.at {
		case passWork:
			if !s.ioMu.Acquire(q, &w.lock) {
				return false
			}
			if s.gen == w.seen || w.id >= s.active {
				s.ioCond.Join(q)
				return false
			}
			w.seen = s.gen
			s.ioMu.Unlock(q)
			w.progress = false
			w.scanFrom(0)
		case passScan:
			if !w.scan.Step(q) {
				return false
			}
			w.j = w.scan.Slot()
			if w.j == len(s.wqs) {
				if w.progress {
					w.progress = false
					w.scanFrom(0)
				} else {
					w.at = passWork
				}
				continue
			}
			w.ot = s.wqs[w.j].popHeld(q)
			w.startStage(w.ot, w.lane)
			w.at = passStaging
		case passStaging:
			if !w.stageStep() {
				return false
			}
			if w.at = passPushFront; w.st.ok {
				w.at = passPushRun
			}
		case passPushRun:
			if !w.ot.pe.PushRunStep(q, &w.lock, w.ot.t) {
				return false
			}
			w.progress = true
			w.scanFrom(w.j + 1)
		case passPushFront:
			if !s.wqs[w.j].pushFrontStep(q, &w.lock, w.ot) {
				return false
			}
			w.scanFrom(w.j + 1)
		}
	}
}

// scanFrom starts the pass's scan over wait queues [from, len).
func (w *ioPass) scanFrom(from int) {
	w.ot = nil
	w.scan.Start(from, len(w.s.wqs), w.s.sweep.lock, w.s.sweep.nonEmpty)
	w.at = passScan
}
