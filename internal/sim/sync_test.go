package sim

import (
	"fmt"
	"testing"
)

func TestMutexExclusion(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(1)
			inside--
			m.Unlock(p)
		})
	}
	end := e.RunAll()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	if end != 8 {
		t.Fatalf("end = %v, want 8 (serialised critical sections)", end)
	}
}

func TestMutexFIFO(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i) * 0.001) // arrive in index order
			m.Lock(p)
			order = append(order, i)
			p.Sleep(1)
			m.Unlock(p)
		})
	}
	e.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("lock grant order %v, want FIFO", order)
		}
	}
}

func TestMutexAcquireCost(t *testing.T) {
	e := NewEngine(1)
	m := Mutex{AcquireCost: 0.5}
	var locked Time
	e.Spawn("p", func(p *Proc) {
		m.Lock(p)
		locked = p.Now()
		m.Unlock(p)
	})
	e.RunAll()
	if locked != 0.5 {
		t.Fatalf("uncontended lock completed at %v, want 0.5", locked)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	e.Spawn("a", func(p *Proc) { m.Lock(p) })
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		m.Unlock(p) // not the owner
	})
	defer func() {
		if recover() == nil {
			t.Fatal("unlock by non-owner did not panic")
		}
	}()
	e.RunAll()
}

func TestMutexRecursiveLockPanics(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	e.Spawn("a", func(p *Proc) {
		m.Lock(p)
		m.Lock(p)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("recursive lock did not panic")
		}
	}()
	e.RunAll()
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := NewCond(&m)
	ready := 0
	var woken []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			m.Lock(p)
			for ready == 0 {
				c.Wait(p)
			}
			ready--
			woken = append(woken, p.Name())
			m.Unlock(p)
		})
	}
	e.Spawn("signaller", func(p *Proc) {
		p.Sleep(1)
		m.Lock(p)
		ready = 1
		m.Unlock(p)
		c.Signal()
	})
	e.Run(10)
	if len(woken) != 1 || woken[0] != "w0" {
		t.Fatalf("woken = %v, want [w0] (FIFO signal)", woken)
	}
	if c.NumWaiters() != 2 {
		t.Fatalf("NumWaiters = %d, want 2", c.NumWaiters())
	}
	e.Close()
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := NewCond(&m)
	start := false
	done := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Lock(p)
			for !start {
				c.Wait(p)
			}
			done++
			m.Unlock(p)
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		m.Lock(p)
		start = true
		m.Unlock(p)
		c.Broadcast()
	})
	e.RunAll()
	if done != 5 {
		t.Fatalf("done = %d, want 5", done)
	}
}

func TestCondWaitWithoutMutexPanics(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := NewCond(&m)
	e.Spawn("w", func(p *Proc) { c.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("Cond.Wait without mutex did not panic")
		}
	}()
	e.RunAll()
}

func TestCondProducerConsumer(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	notEmpty := NewCond(&m)
	var queue []int
	var consumed []int
	const n = 20
	e.Spawn("consumer", func(p *Proc) {
		for len(consumed) < n {
			m.Lock(p)
			for len(queue) == 0 {
				notEmpty.Wait(p)
			}
			v := queue[0]
			queue = queue[1:]
			m.Unlock(p)
			consumed = append(consumed, v)
			p.Sleep(0.1)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(0.05)
			m.Lock(p)
			queue = append(queue, i)
			m.Unlock(p)
			notEmpty.Signal()
		}
	})
	e.RunAll()
	if len(consumed) != n {
		t.Fatalf("consumed %d items, want %d", len(consumed), n)
	}
	for i, v := range consumed {
		if v != i {
			t.Fatalf("consumed out of order: %v", consumed)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	var wg WaitGroup
	var doneAt Time
	wg.Add(3)
	for i := 0; i < 3; i++ {
		d := Time(i + 1)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.RunAll()
	if doneAt != 3 {
		t.Fatalf("waiter released at %v, want 3", doneAt)
	}
	if wg.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", wg.Pending())
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative WaitGroup did not panic")
		}
	}()
	var wg WaitGroup
	wg.Done()
}
