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
	m     *Manager
	wqs   taskQueues
	sweep queueSweep
}

func newNoIO(m *Manager) *noIO {
	s := &noIO{m: m, wqs: newTaskQueues(m.rt.NumPEs(), m.rt.Params().LockCost)}
	s.sweep = newQueueSweep(s.wqs)
	return s
}

func (s *noIO) name() string { return "no-io" }

func (s *noIO) queues() taskQueues { return s.wqs }

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
	s.drain(p, s.wqs[pe], s.wqs[pe].pop(p))
	// Liveness beyond the paper's prose: a PE whose tasks are all
	// parked in its wait queue has no completions of its own to stage
	// them, so a completing worker that finds its own queue empty
	// helps other PEs' queues (documented deviation; without it the
	// tail of an iteration can deadlock when evictions happen only on
	// PEs with empty queues). The sweep locks every other queue in
	// turn, and drains each one it finds non-empty.
	if s.wqs[pe].len(p) == 0 {
		drain := func(i int) { s.drain(p, s.wqs[i], s.wqs[i].popHeld(p)) }
		s.sweep.each(p, 0, pe, drain)
		s.sweep.each(p, pe+1, len(s.wqs), drain)
	}
}

// drain stages wot, just popped from wq (nil when wq was empty), and
// then as many more of wq's tasks as capacity allows, scheduling each
// onto its own PE's run queue.
func (s *noIO) drain(p *sim.Proc, wq *waitQueue[*OOCTask], wot *OOCTask) {
	for ; wot != nil; wot = wq.pop(p) {
		if !wot.stage(p, wot.pe.ID()) {
			wq.pushFront(p, wot)
			return
		}
		wot.pe.PushRun(p, wot.t)
	}
}
