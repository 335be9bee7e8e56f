package sim

import "testing"

// BenchmarkSchedulePop measures the core schedule→fire cycle with a
// steady heap of 64 in-flight events (one per simulated PE lane).
func BenchmarkSchedulePop(b *testing.B) {
	e := NewEngine(1)
	const lanes = 64
	remaining := b.N
	var tick func()
	tick = func() {
		remaining--
		if remaining > 0 {
			e.After(1e-6, tick)
		}
	}
	for i := 0; i < lanes && remaining > 0; i++ {
		e.After(1e-6, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkScheduleCancel measures the condvar-timeout pattern: every
// fired event schedules a far-future guard that is cancelled on the next
// tick. Before cancel-reclaim, the dead guards accumulated in the heap
// and this benchmark degraded superlinearly with b.N.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	var guard EventHandle
	remaining := b.N
	var tick func()
	tick = func() {
		guard.Cancel()
		guard = e.After(1e3, func() {})
		remaining--
		if remaining > 0 {
			e.After(1e-6, tick)
		}
	}
	e.After(1e-6, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkProcHandoff measures the coroutine grant/park round-trip that
// every task execution pays.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-6)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkSpawn measures a child process's whole life: spawn it, let it
// sleep once and join it with a WaitGroup: the cost of a short-lived
// helper process.
func BenchmarkSpawn(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			var wg WaitGroup
			wg.Add(1)
			p.Spawn("child", func(q *Proc) {
				q.Sleep(1e-6)
				wg.Done()
			})
			wg.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkLockCharge measures a charged Mutex Lock/Unlock round trip,
// whose AcquireCost wake goes through the lock-charge FIFO, while 64
// later events wait on the heap.
func BenchmarkLockCharge(b *testing.B) {
	e := NewEngine(1)
	defer e.Close()
	m := Mutex{AcquireCost: 0.3e-6}
	e.Spawn("locker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			m.Lock(p)
			m.Unlock(p)
		}
	})
	for i := 0; i < 64; i++ {
		e.Schedule(1e9+Time(i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}
