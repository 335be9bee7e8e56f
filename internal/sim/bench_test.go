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
// sleep once and join it with a WaitGroup. This is what core.RunKernel
// pays for the writer half (kern-wr) of every read-write kernel.
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
