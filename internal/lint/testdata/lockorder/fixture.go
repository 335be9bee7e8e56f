// Package lockorder exercises the global lock-order graph: two
// functions acquiring the same two mutexes in opposite order, an
// interprocedural variant where the second acquisition hides behind a
// call, a sim.Proc.Drive step whose stepped acquisitions invert a
// blocking pair, and a step that parks holding a lock before it takes
// the next. The four cycles use disjoint lock pairs so each forms its
// own strongly connected component and is reported separately.
package lockorder

import (
	"sync"

	"github.com/hetmem/hetmem/internal/sim"
)

type A struct {
	mu sync.Mutex
}

type B struct {
	mu sync.Mutex
}

type C struct {
	mu sync.Mutex
}

type D struct {
	mu sync.Mutex
}

var (
	a A
	b B
	c C
	d D
)

// ab and ba acquire A.mu and B.mu in conflicting order: the cycle is
// anchored at the earliest conflicting acquisition.
func ab() {
	a.mu.Lock()
	b.mu.Lock() // want `lock-order cycle among lockorder\.A\.mu, lockorder\.B\.mu`
	b.mu.Unlock()
	a.mu.Unlock()
}

func ba() {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

// The C.mu <-> D.mu conflict only exists through the call chain:
// cThenD holds C.mu across a call that locks D.mu, while dThenC holds
// D.mu across a call that locks C.mu. Interprocedural edges anchor at
// the call site made under the held lock.
func cThenD() {
	c.mu.Lock()
	defer c.mu.Unlock()
	lockD() // want `lock-order cycle among lockorder\.C\.mu, lockorder\.D\.mu`
}

func lockD() {
	d.mu.Lock()
	d.mu.Unlock()
}

func dThenC() {
	d.mu.Lock()
	defer d.mu.Unlock()
	lockC()
}

func lockC() {
	c.mu.Lock()
	c.mu.Unlock()
}

// Nested same-order acquisition is not a cycle.
func abAgain() {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

type E struct {
	mu sim.Mutex
}

type F struct {
	mu sim.Mutex
}

var (
	e E
	f F
)

// efStep takes E.mu and then F.mu through stepped acquisitions, the
// order a Drive step sees; feBlocking locks them the other way round.
func efStep(p *sim.Proc, s *[2]sim.LockStep) bool {
	if !e.mu.Acquire(p, &s[0]) {
		return false
	}
	if !f.mu.Acquire(p, &s[1]) { // want `lock-order cycle among lockorder\.E\.mu, lockorder\.F\.mu`
		return false
	}
	f.mu.Unlock(p)
	e.mu.Unlock(p)
	return true
}

func feBlocking(p *sim.Proc) {
	f.mu.Lock(p)
	e.mu.Lock(p)
	e.mu.Unlock(p)
	f.mu.Unlock(p)
}

type G struct {
	mu sim.Mutex
}

type H struct {
	mu sim.Mutex
}

var (
	g G
	h H
)

// ghParked holds G.mu across a park on a step form, as a stepped fetch
// holds its block lock across the migration: the lock is still held
// when the step goes on to take H.mu, which hgBlocking locks the other
// way round.
func ghParked(p *sim.Proc, s *sim.LockStep, steps func() bool) bool {
	if !g.mu.Acquire(p, s) {
		return false
	}
	if !steps() {
		return false
	}
	h.mu.Lock(p) // want `lock-order cycle among lockorder\.G\.mu, lockorder\.H\.mu`
	h.mu.Unlock(p)
	g.mu.Unlock(p)
	return true
}

func hgBlocking(p *sim.Proc) {
	h.mu.Lock(p)
	g.mu.Lock(p)
	g.mu.Unlock(p)
	h.mu.Unlock(p)
}
