package core

import (
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// mover runs one process's share of the data-movement protocols as
// stages of a sim.Proc.Drive step: a staging attempt, a release, the
// makeRoom call a staging may make, and the block move (a fetch or an
// eviction) under any of them. A process runs at most one of each at a
// time, nested no deeper than staging > makeRoom > block move, so one
// mover per process holds them all and each start resets its slot.
type mover struct {
	m    *Manager
	p    *sim.Proc
	st   staging
	rel  releasing
	room roomPass
	mv   blockMove
}

// worker is a PE's pre- or post-processing of one task, the strategy's
// admit or complete, as the charm.Hook its scheduler runs as a stage of
// its Drive step. Each PE has one, made at its first interception, and
// each interception and post-processing resets it.
type worker struct {
	mover
	pe    *charm.PE
	strat strategy
	t     *charm.Task
	ot    *OOCTask // nil when t was not intercepted
	post  bool     // complete, else admit
	owned bool     // admit queued ot: the strategy owns it

	// The strategy's own step state: where it is, the acquisition
	// under way and the dependence it is at.
	at   uint8
	lock sim.LockStep
	i    int
	// No IO's drain stages wot, popped from wait queue dq, and goes on
	// to stage then when it ends; scan is its cross-PE scan over wait
	// queues [.., scanTo).
	wot    *OOCTask
	dq     int
	then   uint8
	scan   sim.Scan
	scanTo int
}

// worker returns PE pe's worker, whose process is p, reset for t.
func (m *Manager) worker(p *sim.Proc, pe *charm.PE, t *charm.Task, post bool) *worker {
	if m.workers == nil {
		m.workers = make([]*worker, m.rt.NumPEs())
	}
	w := m.workers[pe.ID()]
	if w == nil {
		w = &worker{mover: mover{m: m, p: p}, pe: pe}
		m.workers[pe.ID()] = w
	}
	ot, _ := t.Ctx.(*OOCTask)
	w.strat, w.t, w.ot, w.post, w.owned = m.strat, t, ot, post, false
	w.at, w.i, w.wot = 0, 0, nil
	return w
}

// Step implements charm.Hook: it runs the strategy's admit or complete
// and emits the task's admission or completion once it is over.
func (w *worker) Step() bool {
	m := w.m
	if w.post {
		if w.ot != nil && !w.strat.complete(w) {
			return false
		}
		if m.rt.Observed() {
			m.noteTask(charm.EvTaskDone, w.t, w.pe.ID(), 0, false)
		}
		return true
	}
	if !w.strat.admit(w) {
		return false
	}
	if m.rt.Observed() {
		m.noteTask(charm.EvAdmit, w.t, w.pe.ID(), w.ot.depBytes, w.owned)
	}
	return true
}

// Owned implements charm.Hook.
func (w *worker) Owned() bool { return w.owned }
