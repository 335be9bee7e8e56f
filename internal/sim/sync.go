package sim

// Virtual-time synchronisation primitives mirroring the pthread
// mutex/condvar protocol the paper's runtime uses. All waits are FIFO,
// which keeps simulations deterministic and matches the paper's
// fairness assumptions ("the IO thread locks each wait queue one by
// one").

// Mutex is a virtual-time mutual-exclusion lock with FIFO hand-off.
// AcquireCost, when non-zero, charges that much virtual time to every
// successful acquisition (contended or not), modelling the constant cost
// of a lock operation that the paper's Projections traces show as
// "delays caused by waiting for queue locks and data block locks".
type Mutex struct {
	AcquireCost Time

	owner   *Proc
	waiters []*Proc
}

// Lock acquires m, parking p until the lock is available. Locks are
// granted in FIFO order.
func (m *Mutex) Lock(p *Proc) {
	var s LockStep
	for !m.Acquire(p, &s) {
		p.park()
	}
}

// LockStep is how far a process has got in acquiring a Mutex. The zero
// value has not yet asked for the lock, and Acquire resets a step to it
// once the lock is held, so one LockStep serves acquisition after
// acquisition.
type LockStep uint8

const (
	lockStart   LockStep = iota // not yet asked for the lock
	lockHandoff                 // queued for the FIFO handoff
	lockCharge                  // holds the lock; its AcquireCost wake is pending
)

// Acquire takes p's acquisition of m one step on from *s and reports
// whether p now holds m and has paid its AcquireCost. When it reports
// false it has arranged p's wake (a place in the FIFO handoff, or the
// charge on the engine's lock-charge FIFO) and p must park, or return
// false from its Drive step, before calling Acquire again. Lock loops
// over it, so a stepped acquisition's handoffs and charges are Lock's,
// event for event.
func (m *Mutex) Acquire(p *Proc, s *LockStep) bool {
	switch *s {
	case lockStart:
		if m.owner == p {
			panic("sim: recursive Mutex.Lock by " + p.name)
		}
		if m.owner != nil {
			m.waiters = append(m.waiters, p)
			*s = lockHandoff
			return false
		}
		m.owner = p
	case lockHandoff:
		if m.owner != p {
			panic("sim: mutex handoff error")
		}
	case lockCharge:
		*s = lockStart
		return true
	}
	if m.AcquireCost > 0 {
		p.e.scheduleCharge(m.AcquireCost, p.timerFn)
		*s = lockCharge
		return false
	}
	*s = lockStart
	return true
}

// Unlock releases m, handing it to the oldest waiter if any. Unlocking a
// mutex not held by p panics, as with sync.Mutex misuse.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.name)
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	copy(m.waiters, m.waiters[1:])
	m.waiters = m.waiters[:len(m.waiters)-1]
	m.owner = next
	next.Resume()
}

// Scan is a sweep over a row of locks in progress, for a Proc.Drive
// step that runs it whole or as one of its stages. It acquires lock(i)
// for each slot i in [from, n) in turn, exactly as Mutex.Lock would,
// calls visit(i) under the lock and releases it, until a visit returns
// true: the scan then ends at that slot with its lock still held, or at
// n when no visit does. Its events, times and handoffs are those of the
// explicit loop
//
//	for i := from; i < n; i++ {
//		lock(i).Lock(p)
//		if visit(i) {
//			return i
//		}
//		lock(i).Unlock(p)
//	}
//	return n
//
// but the step, not p, waits for each lock. visit therefore runs as
// part of the step and must neither park nor touch any slot but its
// own; a panic in it surfaces from Run as a body panic does. A scan
// holds slot i of [i, n), its mutex m and how far p has got in
// acquiring it; callers bind lock and visit once to scan without
// allocating.
type Scan struct {
	step  LockStep
	i, n  int
	m     *Mutex
	lock  func(int) *Mutex
	visit func(int) bool
}

// Start sets s to sweep [from, n) with lock and visit; it takes no lock
// until the first Step. A range with from >= n ends at the first Step
// with the result n.
func (s *Scan) Start(from, n int, lock func(int) *Mutex, visit func(int) bool) {
	*s = Scan{i: from, n: n, lock: lock, visit: visit}
	if from < n {
		s.m = lock(from)
	} else {
		s.i = n
	}
}

// Step runs the scan for p until p must park for a lock, and reports
// false, or until it ends, and reports true: Slot is then the slot of
// the hit, its lock still held, or n.
func (s *Scan) Step(p *Proc) bool {
	if s.i == s.n {
		return true
	}
	for {
		if !s.m.Acquire(p, &s.step) {
			return false
		}
		if s.visit(s.i) {
			return true
		}
		s.m.Unlock(p)
		if s.i++; s.i == s.n {
			return true
		}
		s.m = s.lock(s.i)
	}
}

// Slot returns the slot where an ended scan stopped: its hit, or n.
func (s *Scan) Slot() int { return s.i }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// HeldBy reports whether p currently owns the mutex.
func (m *Mutex) HeldBy(p *Proc) bool { return m.owner == p }

// Cond is a virtual-time condition variable bound to a Mutex, mirroring
// pthread_cond_t. Waiters are woken in FIFO order.
type Cond struct {
	M       *Mutex
	waiters []*Proc
}

// NewCond returns a condition variable using m.
func NewCond(m *Mutex) *Cond { return &Cond{M: m} }

// Wait atomically releases the mutex and parks p; on wake-up it
// re-acquires the mutex before returning. As with pthreads, callers must
// re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.Join(p)
	p.park()
	c.M.Lock(p)
}

// Join joins c's waiters and releases c.M: the half of Wait before its
// park. A Drive step returns false after it and, once woken,
// re-acquires c.M through Mutex.Acquire, as Wait does after its park.
func (c *Cond) Join(p *Proc) {
	if c.M.owner != p {
		panic("sim: Cond.Wait without holding mutex, proc " + p.name)
	}
	c.waiters = append(c.waiters, p)
	c.M.Unlock(p)
}

// Signal wakes the oldest waiter, if any. The caller does not need to
// hold the mutex (matching pthreads).
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	w.Resume()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.Resume()
	}
}

// NumWaiters returns how many processes are parked in Wait.
func (c *Cond) NumWaiters() int { return len(c.waiters) }

// WaitGroup waits for a collection of processes or operations to finish,
// mirroring sync.WaitGroup in virtual time.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// Add adds delta to the counter. A negative resulting counter panics.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		ws := wg.waiters
		wg.waiters = nil
		for _, w := range ws {
			w.Resume()
		}
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.waiters = append(wg.waiters, p)
		p.park()
	}
}

// Pending returns the current counter value.
func (wg *WaitGroup) Pending() int { return wg.n }
