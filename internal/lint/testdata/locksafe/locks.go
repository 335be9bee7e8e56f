// Package fixture exercises the locksafe analyzer against the staging
// protocol's lock-discipline shapes from the PR-1 singleIO/multiIO
// races.
package fixture

import (
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

// station mirrors the singleIO staging structures: a mutex, its
// condition variable, and a notification channel.
type station struct {
	mu    sim.Mutex
	other sim.Mutex
	cond  *sim.Cond
	gen   int
	ch    chan struct{}
}

func newStation() *station {
	s := &station{ch: make(chan struct{}, 1)}
	s.cond = sim.NewCond(&s.mu)
	return s
}

func (s *station) goodWait(p *sim.Proc) {
	s.mu.Lock(p)
	for s.gen == 0 {
		s.cond.Wait(p)
	}
	s.mu.Unlock(p)
}

func (s *station) goodDefer(p *sim.Proc) int {
	s.mu.Lock(p)
	defer s.mu.Unlock(p)
	if s.gen > 0 {
		return s.gen
	}
	return 0
}

func (s *station) goodSend(p *sim.Proc) {
	s.mu.Lock(p)
	g := s.gen
	s.mu.Unlock(p)
	if g > 0 {
		s.ch <- struct{}{}
	}
}

func (s *station) badSend(p *sim.Proc) {
	s.mu.Lock(p)
	s.ch <- struct{}{} // want `channel operation while mutex s\.mu is held`
	s.mu.Unlock(p)
}

func (s *station) badRecv(p *sim.Proc) {
	s.mu.Lock(p)
	<-s.ch // want `channel operation while mutex s\.mu is held`
	s.mu.Unlock(p)
}

func (s *station) badWaitNoLock(p *sim.Proc) {
	s.cond.Wait(p) // want `s\.cond\.Wait without holding its mutex mu`
}

func (s *station) badWaitForeign(p *sim.Proc) {
	s.mu.Lock(p)
	s.other.Lock(p)
	for s.gen == 0 {
		s.cond.Wait(p) // want `mutex s\.other held across s\.cond\.Wait`
	}
	s.other.Unlock(p)
	s.mu.Unlock(p)
}

func (s *station) badReturn(p *sim.Proc, early bool) {
	s.mu.Lock(p)
	if early {
		return // want `return with mutex s\.mu still held`
	}
	s.mu.Unlock(p)
}

func (s *station) badRecursive(p *sim.Proc) {
	s.mu.Lock(p)
	s.mu.Lock(p) // want `recursive lock of s\.mu`
	s.mu.Unlock(p)
	s.mu.Unlock(p)
}

// goodStep is a Drive step in the Multiple IO search's shape: a stepped
// acquisition, a Join that releases the mutex before the step parks,
// and an unlock on the path that goes on.
func (s *station) goodStep(p *sim.Proc, st *sim.LockStep) bool {
	if !s.mu.Acquire(p, st) {
		return false
	}
	if s.gen == 0 {
		s.cond.Join(p)
		return false
	}
	s.gen--
	s.mu.Unlock(p)
	return true
}

func (s *station) badSteppedRecursive(p *sim.Proc, st *sim.LockStep) bool {
	s.mu.Lock(p)
	if !s.mu.Acquire(p, st) { // want `recursive lock of s\.mu`
		return false
	}
	s.mu.Unlock(p)
	return true
}

func (s *station) badSteppedReturn(p *sim.Proc, st *sim.LockStep) bool {
	if !s.mu.Acquire(p, st) {
		return false
	}
	if s.gen == 0 {
		return false // want `return with mutex s\.mu still held`
	}
	s.mu.Unlock(p)
	return true
}

// move is a block move in the stepped fetch's shape: the block lock,
// then a copy the step waits on with the lock held.
type move struct {
	locked bool
	lock   sim.LockStep
	left   int
	flow   *memsim.Flow
}

// copyStep is a step form: it arms a sleep and reports false while the
// copy has work left.
func (mv *move) copyStep(p *sim.Proc) bool {
	if mv.left == 0 {
		return true
	}
	mv.left--
	p.ArmSleep(1)
	return false
}

// goodHeldAcrossStep parks with s.mu held while another step form
// waits, and releases the lock in the step that finishes.
func (s *station) goodHeldAcrossStep(p *sim.Proc, mv *move) bool {
	if !mv.locked {
		if !s.mu.Acquire(p, &mv.lock) {
			return false
		}
		mv.locked = true
		if !mv.copyStep(p) {
			return false
		}
	} else if !mv.copyStep(p) {
		return false
	}
	mv.locked = false
	s.mu.Unlock(p)
	return true
}

// goodHeldAcrossSleep parks with s.mu held on a sleep it armed.
func (s *station) goodHeldAcrossSleep(p *sim.Proc, mv *move) bool {
	if !s.mu.Acquire(p, &mv.lock) {
		return false
	}
	if mv.left > 0 {
		mv.left = 0
		p.ArmSleep(1)
		return false
	}
	s.mu.Unlock(p)
	return true
}

// goodHeldAcrossFlow parks with s.mu held on a flow, and on a stepped
// push whose result it reads in the guard's init.
func (s *station) goodHeldAcrossFlow(p *sim.Proc, mv *move, q *queue) bool {
	if !s.mu.Acquire(p, &mv.lock) {
		return false
	}
	if mv.flow.Await(p) {
		return false
	}
	if _, ok := q.pushStep(p); !ok {
		return false
	}
	s.mu.Unlock(p)
	return true
}

// queue has a step form with two results.
type queue struct{ n int }

func (q *queue) pushStep(p *sim.Proc) (int, bool) {
	q.n++
	return q.n, true
}

func (s *station) badStepReturnsTrue(p *sim.Proc, mv *move) bool {
	if !s.mu.Acquire(p, &mv.lock) {
		return false
	}
	if !mv.copyStep(p) {
		return true // want `return with mutex s\.mu still held`
	}
	s.mu.Unlock(p)
	return true
}

func (s *station) badSleepReturnsTrue(p *sim.Proc, mv *move) bool {
	if !s.mu.Acquire(p, &mv.lock) {
		return false
	}
	if mv.left > 0 {
		p.ArmSleep(1)
		return true // want `return with mutex s\.mu still held`
	}
	s.mu.Unlock(p)
	return true
}

func (s *station) badReturnAfterNoWake(p *sim.Proc, mv *move) bool {
	if !s.mu.Acquire(p, &mv.lock) {
		return false
	}
	if mv.left > 0 {
		mv.left--
		return false // want `return with mutex s\.mu still held`
	}
	s.mu.Unlock(p)
	return true
}
