// Package fixture exercises the locksafe analyzer against the staging
// protocol's lock-discipline shapes from the PR-1 singleIO/multiIO
// races.
package fixture

import (
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
