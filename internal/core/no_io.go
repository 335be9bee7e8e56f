package core

import (
	"github.com/hetmem/hetmem/internal/charm"
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

// Where a No IO admit is in its sequence.
const (
	naLen   uint8 = iota // check the PE's wait queue
	naStage              // stage the task
	naPush               // queue the task
)

func (s *noIO) admit(w *worker) bool {
	pe, p, ot := w.pe.ID(), w.p, w.ot
	for {
		switch w.at {
		case naLen:
			// "When a task arrives on a PE, if there is sufficient
			// allocation space in HBM, it fetches its own data in the
			// preprocessing step" — synchronous: the fetch time lands
			// on the worker's own lane. FIFO fairness: if older tasks
			// already wait on this PE, queue behind them instead of
			// overtaking.
			n, ok := s.wqs[pe].lenStep(p, &w.lock)
			if !ok {
				return false
			}
			w.at = naPush
			if n == 0 {
				w.startStage(ot, pe)
				w.at = naStage
			}
		case naStage:
			if !w.stageStep() {
				return false
			}
			if w.st.ok {
				s.m.Stats.TasksInline++
				return true
			}
			w.at = naPush
		case naPush:
			depth, ok := s.wqs[pe].pushStep(p, &w.lock, ot)
			if !ok {
				return false
			}
			if s.m.rt.Observed() {
				s.m.noteQueue(charm.EvQueueDepth, pe, depth)
			}
			s.m.Stats.TasksStaged++
			w.owned = true
			return true
		}
	}
}

// Where a No IO complete is in its sequence.
const (
	ncStart     uint8 = iota // drop the task's pins
	ncRelease                // evict the task's own dead dependences
	ncPop                    // pop the PE's own wait queue
	ncDrain                  // stage wot, or end the drain
	ncStaging                // wot's staging is under way
	ncPushRun                // run the staged wot on its PE
	ncPushFront              // put back wot, which failed to stage
	ncPopNext                // pop queue dq's next task
	ncLen                    // check the PE's own wait queue again
	ncScan                   // scan the other PEs' wait queues
	ncScanOn                 // scan on past queue dq
)

// complete is post-processing. The task evicts its own dead dependences
// and drains its PE's wait queue: it stages the queued tasks, each onto
// its own PE's run queue, as long as capacity allows.
//
// Liveness beyond the paper's prose: a PE whose tasks are all parked in
// its wait queue has no completions of its own to stage them, so a
// completing worker that then finds its own queue empty helps other
// PEs' queues (documented deviation; without it the tail of an
// iteration can deadlock when evictions happen only on PEs with empty
// queues). A sim.Scan locks every other queue in turn, as
// sim.Proc.Sweep does, and the worker drains each one it finds
// non-empty.
func (s *noIO) complete(w *worker) bool {
	pe, p := w.pe.ID(), w.p
	for {
		switch w.at {
		case ncStart:
			w.startRelease(w.ot, pe)
			w.at = ncRelease
		case ncRelease:
			if !w.releaseStep() {
				return false
			}
			w.at = ncPop
		case ncPop:
			// "After evicting its own data, it checks in the wait
			// queue on its PE, to see if there are any tasks waiting
			// to be scheduled."
			wot, ok := s.wqs[pe].popStep(p, &w.lock)
			if !ok {
				return false
			}
			w.wot, w.dq, w.then = wot, pe, ncLen
			w.at = ncDrain
		case ncDrain:
			if w.wot == nil {
				w.at = w.then
				continue
			}
			w.startStage(w.wot, w.wot.pe.ID())
			w.at = ncStaging
		case ncStaging:
			if !w.stageStep() {
				return false
			}
			if w.at = ncPushFront; w.st.ok {
				w.at = ncPushRun
			}
		case ncPushRun:
			if !w.wot.pe.PushRunStep(p, &w.lock, w.wot.t) {
				return false
			}
			w.at = ncPopNext
		case ncPopNext:
			wot, ok := s.wqs[w.dq].popStep(p, &w.lock)
			if !ok {
				return false
			}
			w.wot, w.at = wot, ncDrain
		case ncPushFront:
			if !s.wqs[w.dq].pushFrontStep(p, &w.lock, w.wot) {
				return false
			}
			w.wot, w.at = nil, w.then
		case ncLen:
			n, ok := s.wqs[pe].lenStep(p, &w.lock)
			if !ok {
				return false
			}
			if n > 0 {
				return true
			}
			s.scanFrom(w, 0, pe)
		case ncScan:
			if !w.scan.Step(p) {
				return false
			}
			switch j := w.scan.Slot(); {
			case j < w.scanTo:
				w.wot, w.dq, w.then = s.wqs[j].popHeld(p), j, ncScanOn
				w.at = ncDrain
			case j < len(s.wqs):
				s.scanFrom(w, pe+1, len(s.wqs))
			default:
				return true
			}
		case ncScanOn:
			s.scanFrom(w, w.dq+1, w.scanTo)
		}
	}
}

// scanFrom starts w's cross-PE scan over wait queues [from, to).
func (s *noIO) scanFrom(w *worker, from, to int) {
	w.scan.Start(from, to, s.sweep.lock, s.sweep.nonEmpty)
	w.scanTo, w.at = to, ncScan
}
