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
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by " + p.name)
	}
	if m.owner != nil {
		m.waiters = append(m.waiters, p)
		p.park()
		if m.owner != p {
			panic("sim: mutex handoff error")
		}
	} else {
		m.owner = p
	}
	if m.AcquireCost > 0 {
		p.charge(m.AcquireCost)
	}
}

// TryLock acquires m if it is free and reports whether it did. It never
// parks and never charges AcquireCost on failure.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.owner = p
	if m.AcquireCost > 0 {
		p.charge(m.AcquireCost)
	}
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
	if c.M.owner != p {
		panic("sim: Cond.Wait without holding mutex, proc " + p.name)
	}
	c.waiters = append(c.waiters, p)
	c.M.Unlock(p)
	p.park()
	c.M.Lock(p)
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

// Semaphore is a counting semaphore with FIFO wake-up.
type Semaphore struct {
	n       int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{n: n} }

// Acquire takes one permit, parking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.n > 0 {
		s.n--
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Release returns one permit, waking the oldest waiter if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		copy(s.waiters, s.waiters[1:])
		s.waiters = s.waiters[:len(s.waiters)-1]
		w.Resume()
		return
	}
	s.n++
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.n }

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
