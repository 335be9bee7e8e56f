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
	m   *Manager
	wqs []*waitQueue

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
	for i := 0; i < nq; i++ {
		s.wqs = append(s.wqs, newWaitQueue(m.rt.Params().LockCost))
	}
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
		i := s.spawned
		lane := s.m.rt.NumPEs() + i
		s.m.rt.Engine().Spawn(fmt.Sprintf("IO%d", i), func(q *sim.Proc) { s.ioLoop(q, i, lane) })
		s.spawned++
	}
}

// setIOThreads retargets the pool at n serving threads online (n <= 0
// means the mode's natural count, 1) — the adaptive controller's
// IOThreads knob. Threads beyond n park in ioLoop's wait guard until
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

// queueFor returns the wait queue a PE's tasks join.
func (s *singleIO) queueFor(pe int) *waitQueue {
	if len(s.wqs) == 1 {
		return s.wqs[0]
	}
	return s.wqs[pe]
}

// kick wakes the IO thread(s): every thread whose last served
// generation predates this one will run another pass.
func (s *singleIO) kick(p *sim.Proc) {
	s.ioMu.Lock(p)
	s.gen++
	s.ioMu.Unlock(p)
	s.ioCond.Broadcast()
}

func (s *singleIO) admit(p *sim.Proc, ot *OOCTask) bool {
	// Fast path from the paper: "A task checks if it is ready to
	// execute, i.e. if all the data dependences are in INHBM; if so,
	// the task is immediately added to the run queue."  Running it
	// inline is equivalent to queueing it at the head of the run
	// queue and avoids a scheduler round-trip.
	if ot.ready() {
		ot.pinAll()
		s.m.Stats.TasksInline++
		return false
	}
	pe := ot.pe.ID()
	qi := 0
	if len(s.wqs) > 1 {
		qi = pe
	}
	depth := s.queueFor(pe).push(p, ot)
	if s.m.rt.Observed() {
		s.m.noteQueue(charm.EvQueueDepth, qi, depth)
	}
	s.m.Stats.TasksStaged++
	s.kick(p)
	return true
}

func (s *singleIO) complete(p *sim.Proc, ot *OOCTask) {
	// Post-processing: the worker evicts its own dead dependences,
	// then wakes the sleeping IO thread so freed space can be reused.
	ot.release(p, ot.pe.ID())
	s.kick(p)
}

// queued implements the watchdog's stuck-task snapshot.
func (s *singleIO) queued() [][]*OOCTask {
	out := make([][]*OOCTask, len(s.wqs))
	for i, wq := range s.wqs {
		out[i] = wq.quiescentTasks()
	}
	return out
}

// scanWaiting visits every wait-queued task under the queue locks.
func (s *singleIO) scanWaiting(p *sim.Proc, visit func(pos int, ot *OOCTask)) {
	for _, wq := range s.wqs {
		wq.scan(p, visit)
	}
}

// ioLoop is Algorithm 1: while space remains in HBM, pop the first task
// of each wait queue in turn, bring in its data, and move it to the run
// queue; sleep when out of tasks or capacity. Thread id parks whenever
// the pool is retargeted below it.
func (s *singleIO) ioLoop(q *sim.Proc, id, lane int) {
	var seen uint64
	for {
		s.ioMu.Lock(q)
		for s.gen == seen || id >= s.active {
			s.ioCond.Wait(q)
		}
		seen = s.gen
		s.ioMu.Unlock(q)

		for progress := true; progress; {
			progress = false
			// Serve each queue once per pass so all PEs advance
			// together ("serving all PEs equally").
			for _, wq := range s.wqs {
				ot := wq.pop(q)
				if ot == nil {
					continue
				}
				if ot.stage(q, lane) {
					ot.Staged = true
					ot.pe.PushRun(q, ot.t)
					progress = true
				} else {
					// HBM full: keep FIFO order and stall this
					// queue until an eviction wakes us.
					wq.pushFront(q, ot)
				}
			}
		}
	}
}
