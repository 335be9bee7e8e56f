package core

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/ring"
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
	wqs    []*waitQueue
	sweep  queueSweep
	evictq []*waitQueueH
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

// waitQueueH is a small FIFO of eviction candidates.
type waitQueueH struct {
	mu     sim.Mutex
	blocks ring.Deque[*Handle]
}

func (q *waitQueueH) push(p *sim.Proc, h *Handle) {
	q.mu.Lock(p)
	q.blocks.PushBack(h)
	q.mu.Unlock(p)
}

func (q *waitQueueH) pop(p *sim.Proc) *Handle {
	q.mu.Lock(p)
	defer q.mu.Unlock(p)
	if q.blocks.Len() == 0 {
		return nil
	}
	return q.blocks.PopFront()
}

func newMultiIO(m *Manager) *multiIO {
	n := m.rt.NumPEs()
	s := &multiIO{
		m:        m,
		ioMu:     make([]sim.Mutex, n),
		ioCond:   make([]*sim.Cond, n),
		work:     make([]bool, n),
		inflight: make([]int, n),
	}
	lockCost := m.rt.Params().LockCost
	for i := 0; i < n; i++ {
		s.wqs = append(s.wqs, newWaitQueue(lockCost))
		eq := &waitQueueH{}
		eq.mu.AcquireCost = lockCost
		s.evictq = append(s.evictq, eq)
		s.ioMu[i].AcquireCost = lockCost
		s.ioCond[i] = sim.NewCond(&s.ioMu[i])
		i := i
		lane := n + i // IO thread lane: the SMT sibling of PE i
		m.rt.Engine().Spawn(fmt.Sprintf("IO-PE%d", i), func(q *sim.Proc) { s.ioLoop(q, i, lane) })
	}
	s.sweep = newQueueSweep(s.wqs)
	return s
}

func (s *multiIO) name() string { return "multi-io" }

// kick wakes PE i's IO thread.
func (s *multiIO) kick(p *sim.Proc, i int) {
	s.ioMu[i].Lock(p)
	s.work[i] = true
	s.ioMu[i].Unlock(p)
	s.ioCond[i].Signal()
}

func (s *multiIO) admit(p *sim.Proc, ot *OOCTask) bool {
	// "When a task arrives at its preprocessing step, it simply adds
	// itself to the corresponding PE's wait queue. The IO thread is
	// then woken up by the worker thread."
	pe := ot.pe.ID()
	depth := s.wqs[pe].push(p, ot)
	if s.m.rt.Observed() {
		s.m.noteQueue(charm.EvQueueDepth, pe, depth)
	}
	s.m.Stats.TasksStaged++
	s.kick(p, pe)
	return true
}

func (s *multiIO) complete(p *sim.Proc, ot *OOCTask) {
	pe := ot.pe.ID()
	// The in-flight count is shared with the PE's IO thread, which
	// reads it against the prefetch-depth bound; decrement under the
	// same mutex so the bound is never transiently over-admitted.
	s.ioMu[pe].Lock(p)
	s.inflight[pe]--
	if s.inflight[pe] < 0 {
		panic("core: multiIO inflight underflow")
	}
	s.ioMu[pe].Unlock(p)
	// Drop pins now (reference counts must be exact), but hand the
	// data movement to the IO thread so eviction is asynchronous too.
	ot.unpinAll()
	if !s.m.opts.EvictLazily {
		for _, d := range ot.deps {
			if !d.h.InUse() {
				s.evictq[pe].push(p, d.h)
			}
		}
	}
	// "It then wakes up the IO thread for the PE, since it has
	// evicted data, allowing more tasks to have their data prefetched."
	s.kick(p, pe)
}

// ioLoop serves PE i: evictions first (freeing capacity), then stage
// waiting tasks until HBM fills, then sleep.
func (s *multiIO) ioLoop(q *sim.Proc, i, lane int) {
	for {
		s.ioMu[i].Lock(q)
		for !s.work[i] {
			s.ioCond[i].Wait(q)
		}
		s.work[i] = false
		s.ioMu[i].Unlock(q)

		evicted := false
		for {
			h := s.evictq[i].pop(q)
			if h == nil {
				break
			}
			// Re-check under the block's own protocol: the block may
			// have been re-pinned by a newly staged task since it was
			// queued, in which case evict is a no-op.
			before := h.Evictions
			s.m.evict(q, lane, h, false)
			if h.Evictions != before {
				evicted = true
			}
		}

		staged := 0
		depth := s.m.opts.PrefetchDepth
		for {
			// Claim an in-flight slot under the mutex before staging;
			// staging parks on locks and migrations, and the bound must
			// hold across those waits.
			s.ioMu[i].Lock(q)
			free := depth == 0 || s.inflight[i] < depth
			if free {
				s.inflight[i]++
				if s.m.rt.Observed() {
					s.m.noteQueue(charm.EvInflight, i, s.inflight[i])
				}
				s.m.aud.CheckInflight(i, s.inflight[i], depth)
			}
			s.ioMu[i].Unlock(q)
			if !free {
				break
			}
			ot := s.wqs[i].pop(q)
			if ot == nil {
				s.releaseSlot(q, i)
				break
			}
			if ot.stage(q, lane) {
				ot.Staged = true
				ot.pe.PushRun(q, ot.t)
				staged++
				continue
			}
			s.releaseSlot(q, i)
			s.wqs[i].pushFront(q, ot)
			break
		}

		// Cross-PE liveness: space freed here — by explicit eviction
		// or by staging-triggered reclamation (makeRoom under lazy
		// eviction) — may be what another PE's stalled IO thread is
		// waiting for. All IO threads are "likely working in
		// parallel, hence there is no starvation problem" under
		// symmetric load; the explicit kick makes it a guarantee. The
		// sweep locks every other wait queue in turn and kicks the
		// thread of each one it finds non-empty.
		if evicted || staged > 0 {
			kick := func(j int) {
				s.wqs[j].mu.Unlock(q)
				s.kick(q, j)
			}
			s.sweep.each(q, 0, i, kick)
			s.sweep.each(q, i+1, len(s.wqs), kick)
		}
	}
}

// releaseSlot returns an unused in-flight slot claimed by ioLoop.
func (s *multiIO) releaseSlot(q *sim.Proc, i int) {
	s.ioMu[i].Lock(q)
	s.inflight[i]--
	s.ioMu[i].Unlock(q)
}

// scanWaiting visits every wait-queued task under the queue locks.
func (s *multiIO) scanWaiting(p *sim.Proc, visit func(pos int, ot *OOCTask)) {
	for _, wq := range s.wqs {
		wq.scan(p, visit)
	}
}

// queued implements the watchdog's stuck-task snapshot.
func (s *multiIO) queued() [][]*OOCTask {
	out := make([][]*OOCTask, len(s.wqs))
	for i, wq := range s.wqs {
		out[i] = wq.quiescentTasks()
	}
	return out
}
