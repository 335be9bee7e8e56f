package core

import (
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// noIO is the paper's "Multiple queues, no IO thread" strategy: fetch
// and eviction are performed synchronously by the worker threads
// themselves. In pre-processing a task fetches its own dependences if
// HBM has room (blocking its PE — the overhead Fig. 6a shows before
// each kernel); otherwise it joins the PE's wait queue. In
// post-processing a task evicts its own dead dependences and then uses
// the freed space to stage a waiting task.
type noIO struct {
	m   *Manager
	wqs []*waitQueue
}

func newNoIO(m *Manager) *noIO {
	s := &noIO{m: m}
	for i := 0; i < m.rt.NumPEs(); i++ {
		s.wqs = append(s.wqs, newWaitQueue(m.rt.Params().LockCost))
	}
	return s
}

func (s *noIO) name() string { return "no-io" }

func (s *noIO) admit(p *sim.Proc, ot *OOCTask) bool {
	pe := ot.pe.ID()
	// "When a task arrives on a PE, if there is sufficient allocation
	// space in HBM, it fetches its own data in the preprocessing step"
	// — synchronous: the fetch time lands on the worker's own lane.
	// FIFO fairness: if older tasks already wait on this PE, queue
	// behind them instead of overtaking.
	if s.wqs[pe].len(p) == 0 && ot.stage(p, pe) {
		s.m.Stats.TasksInline++
		return false
	}
	depth := s.wqs[pe].push(p, ot)
	if s.m.rt.Observed() {
		s.m.noteQueue(charm.EvQueueDepth, pe, depth)
	}
	s.m.Stats.TasksStaged++
	return true
}

func (s *noIO) complete(p *sim.Proc, ot *OOCTask) {
	pe := ot.pe.ID()
	// Synchronous eviction of the task's own dead dependences.
	ot.release(p, pe)
	// "After evicting its own data, it checks in the wait queue on
	// its PE, to see if there are any tasks waiting to be scheduled."
	s.drain(p, s.wqs[pe])
	// Liveness beyond the paper's prose: a PE whose tasks are all
	// parked in its wait queue has no completions of its own to stage
	// them, so a completing worker that finds its own queue empty
	// helps other PEs' queues (documented deviation; without it the
	// tail of an iteration can deadlock when evictions happen only on
	// PEs with empty queues).
	if s.wqs[pe].len(p) == 0 {
		for i := range s.wqs {
			if i != pe {
				s.drain(p, s.wqs[i])
			}
		}
	}
}

// queued implements the watchdog's stuck-task snapshot.
func (s *noIO) queued() [][]*OOCTask {
	out := make([][]*OOCTask, len(s.wqs))
	for i, wq := range s.wqs {
		out[i] = wq.quiescentTasks()
	}
	return out
}

// scanWaiting visits every wait-queued task under the queue locks.
func (s *noIO) scanWaiting(p *sim.Proc, visit func(pos int, ot *OOCTask)) {
	for _, wq := range s.wqs {
		wq.scan(p, visit)
	}
}

// drain stages as many waiting tasks from wq as capacity allows,
// scheduling each onto its own PE's run queue.
func (s *noIO) drain(p *sim.Proc, wq *waitQueue) {
	for {
		wot := wq.pop(p)
		if wot == nil {
			return
		}
		if wot.stage(p, wot.pe.ID()) {
			wot.Staged = true
			wot.pe.PushRun(p, wot.t)
			continue
		}
		wq.pushFront(p, wot)
		return
	}
}
