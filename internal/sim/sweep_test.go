package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// lockLoop is the explicit loop a Scan must match event for event.
func lockLoop(p *Proc, from, n int, lock func(int) *Mutex, visit func(int) bool) int {
	for i := from; i < n; i++ {
		lock(i).Lock(p)
		if visit(i) {
			return i
		}
		lock(i).Unlock(p)
	}
	return n
}

// scanner runs a Scan as a process's whole Drive step, bound once, so
// that a steady-state sweep allocates nothing.
type scanner struct {
	s    Scan
	step func() bool
}

func newScanner(p *Proc) *scanner {
	sc := &scanner{}
	sc.step = func() bool { return sc.s.Step(p) }
	return sc
}

// sweep scans [from, n) as one Drive of p and returns the slot where
// the scan ended, as lockLoop does: a hit, its lock still held, or n.
func (sc *scanner) sweep(p *Proc, from, n int, lock func(int) *Mutex, visit func(int) bool) int {
	sc.s.Start(from, n, lock, visit)
	p.Drive(sc.step)
	return sc.s.Slot()
}

// sweepWith returns how p sweeps: through a scanner when stepped,
// through lockLoop otherwise.
func sweepWith(p *Proc, stepped bool) func(p *Proc, from, n int, lock func(int) *Mutex, visit func(int) bool) int {
	if stepped {
		return newScanner(p).sweep
	}
	return lockLoop
}

// sweepPlan is a random workload on a row of mutexes: sweepers scan the
// row, stopping at chosen slots and holding the lock there for a while,
// and contenders lock single slots, some across a sleep, so that the
// sweepers meet held locks and wait for handoffs.
type sweepPlan struct {
	costs      []Time // AcquireCost per mutex, a mix of 0 and > 0
	sweepers   []sweeperPlan
	contenders []contenderPlan
}

type sweeperPlan struct {
	start  Time
	rounds [][]bool // per round, the slots whose visit hits
	hold   Time     // how long a hit keeps its lock
	gap    Time     // sleep between rounds
}

type contenderPlan struct {
	start Time
	ops   []lockOp
}

type lockOp struct {
	slot      int
	hold, gap Time // sleep holding the lock, then sleep after releasing it
}

// randomSweepPlan draws a plan on 1 to maxSlots mutexes with 1 to
// maxProcs sweepers and 0 to maxProcs contenders. Times are small
// multiples of the charges, so many events share an instant.
func randomSweepPlan(r *rand.Rand, maxSlots, maxProcs int) sweepPlan {
	durs := []Time{0, 0.3e-6, 0.3e-6, 1e-6, 2.5e-6}
	dur := func() Time { return durs[r.Intn(len(durs))] }
	var pl sweepPlan
	n := 1 + r.Intn(maxSlots)
	for i := 0; i < n; i++ {
		pl.costs = append(pl.costs, []Time{0, 0.3e-6, 0.7e-6}[r.Intn(3)])
	}
	for k := 1 + r.Intn(maxProcs); k > 0; k-- {
		sp := sweeperPlan{start: dur(), hold: dur(), gap: dur()}
		for rounds := 1 + r.Intn(3); rounds > 0; rounds-- {
			stops := make([]bool, n)
			for i := range stops {
				stops[i] = r.Intn(4) == 0
			}
			sp.rounds = append(sp.rounds, stops)
		}
		pl.sweepers = append(pl.sweepers, sp)
	}
	for k := r.Intn(maxProcs + 1); k > 0; k-- {
		cp := contenderPlan{start: dur()}
		for ops := 1 + r.Intn(6); ops > 0; ops-- {
			cp.ops = append(cp.ops, lockOp{slot: r.Intn(n), hold: dur(), gap: dur()})
		}
		pl.contenders = append(pl.contenders, cp)
	}
	return pl
}

// logEntry is one logged action: who did what to which slot, and when.
type logEntry struct {
	t      Time
	proc   string
	slot   int
	action string
}

// runSweepPlan runs pl with the sweepers scanning as Drive steps when
// stepped, through lockLoop otherwise, and returns the log and the
// engine's counts.
func runSweepPlan(pl sweepPlan, stepped bool) ([]logEntry, EventStats) {
	e := NewEngine(1)
	defer e.Close()
	ms := make([]Mutex, len(pl.costs))
	for i, c := range pl.costs {
		ms[i].AcquireCost = c
	}
	lock := func(i int) *Mutex { return &ms[i] }
	var log []logEntry
	note := func(p *Proc, slot int, action string) {
		log = append(log, logEntry{e.Now(), p.Name(), slot, action})
	}
	n := len(ms)
	for k, sp := range pl.sweepers {
		sp := sp
		e.Spawn(fmt.Sprintf("sweeper%d", k), func(p *Proc) {
			sweep := sweepWith(p, stepped)
			p.Sleep(sp.start)
			for _, stops := range sp.rounds {
				visit := func(i int) bool {
					note(p, i, "visit")
					return stops[i]
				}
				for i := 0; i < n; i++ {
					if i = sweep(p, i, n, lock, visit); i == n {
						break
					}
					note(p, i, "hit")
					p.Sleep(sp.hold)
					note(p, i, "unlock")
					ms[i].Unlock(p)
				}
				note(p, n, "end")
				p.Sleep(sp.gap)
			}
		})
	}
	for k, cp := range pl.contenders {
		cp := cp
		e.Spawn(fmt.Sprintf("contender%d", k), func(p *Proc) {
			p.Sleep(cp.start)
			for _, op := range cp.ops {
				ms[op.slot].Lock(p)
				note(p, op.slot, "lock")
				p.Sleep(op.hold)
				note(p, op.slot, "unlock")
				ms[op.slot].Unlock(p)
				p.Sleep(op.gap)
			}
		})
	}
	e.RunAll()
	if e.LiveProcs() != 0 {
		panic(fmt.Sprintf("plan deadlocked: %v", e.BlockedProcNames()))
	}
	return log, e.EventStats()
}

// checkSweepPlan runs pl with stepped Scans and with the explicit loop
// and fails unless both give the same log and the same event counts but
// Resumes, which the Scans must not raise, and Steps: every wake the
// loop resumes its process for, a Scan's Drive either resumes or steps.
// It returns both Resumes counts.
func checkSweepPlan(t *testing.T, pl sweepPlan) (scan, loop int64) {
	t.Helper()
	got, gotSt := runSweepPlan(pl, true)
	want, wantSt := runSweepPlan(pl, false)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("plan %+v: step %d is %+v with the Scan, %+v with the loop", pl, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("plan %+v: %d steps with the Scan, %d with the loop", pl, len(got), len(want))
	}
	scan, loop = gotSt.Resumes, wantSt.Resumes
	if scan > loop {
		t.Errorf("plan %+v: %d resumes with the Scan, more than the loop's %d", pl, scan, loop)
	}
	if gotSt.Resumes+gotSt.Steps != wantSt.Resumes+wantSt.Steps {
		t.Errorf("plan %+v: %d resumes and %d steps with the Scan, %d and %d with the loop: the wakes differ", pl, gotSt.Resumes, gotSt.Steps, wantSt.Resumes, wantSt.Steps)
	}
	gotSt.Resumes, wantSt.Resumes = 0, 0
	gotSt.Steps, wantSt.Steps = 0, 0
	if gotSt != wantSt {
		t.Fatalf("plan %+v: EventStats %+v with the Scan, %+v with the loop", pl, gotSt, wantSt)
	}
	return scan, loop
}

// TestSweepMatchesLockLoop checks a Scan run as a Drive step against
// the explicit Lock/visit/Unlock loop on seeded random plans: the same
// actions at the same times in the same order, and the same events.
func TestSweepMatchesLockLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var scan, loop int64
	for i := 0; i < 500; i++ {
		s, l := checkSweepPlan(t, randomSweepPlan(r, 8, 3))
		scan += s
		loop += l
	}
	if scan >= loop {
		t.Errorf("%d resumes with the Scan over all plans, want fewer than the loop's %d", scan, loop)
	}
	t.Logf("resumes: %d with the Scan, %d with the loop", scan, loop)
}

// FuzzSweep checks a Scan run as a Drive step against the explicit loop
// on plans drawn from the fuzzed seed, with up to 1+slots%16 mutexes
// and 1+procs%6 sweepers and contenders each.
func FuzzSweep(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(2))
	f.Add(int64(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(15), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, slots, procs uint8) {
		checkSweepPlan(t, randomSweepPlan(rand.New(rand.NewSource(seed)), 1+int(slots%16), 1+int(procs%6)))
	})
}

// TestSweepResumesOnce: a Scan over charged free locks resumes its
// process once, at the end, where the loop resumes it after every
// charge.
func TestSweepResumesOnce(t *testing.T) {
	for _, tc := range []struct {
		stepped bool
		want    int64
	}{
		{true, 2},  // the first grant, and the end of the scan
		{false, 9}, // the first grant, and one per charge
	} {
		e := NewEngine(1)
		ms := make([]Mutex, 8)
		for i := range ms {
			ms[i].AcquireCost = 0.3e-6
		}
		e.Spawn("sweeper", func(p *Proc) {
			sweepWith(p, tc.stepped)(p, 0, len(ms), func(i int) *Mutex { return &ms[i] }, func(int) bool { return false })
		})
		e.RunAll()
		if got := e.EventStats().Resumes; got != tc.want {
			t.Errorf("%d resumes, want %d", got, tc.want)
		}
		var end Time
		for range ms {
			end += 0.3e-6
		}
		if e.Now() != end {
			t.Errorf("sweep ended at %v, want %v", e.Now(), end)
		}
	}
}

// sweepPanic runs body in a process named "sweeper" and returns what
// Run panicked with, then closes the engine and checks it reaped every
// process.
func sweepPanic(t *testing.T, body func(p *Proc, ms []Mutex)) any {
	t.Helper()
	e := NewEngine(1)
	ms := make([]Mutex, 4)
	for i := range ms {
		ms[i].AcquireCost = 0.3e-6
	}
	e.Spawn("sweeper", func(p *Proc) { body(p, ms) })
	r := func() (r any) {
		defer func() { r = recover() }()
		e.RunAll()
		return nil
	}()
	e.Close()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", n)
	}
	return r
}

// TestSweepPanics: a recursive lock, a panicking visit and a visit that
// parks each surface from Run as a body panic does, naming the process,
// whether the scan's step is still in the body (slot 0, before the
// Drive first parks) or runs from an event callback (slot 2, after two
// charges).
func TestSweepPanics(t *testing.T) {
	lockOf := func(ms []Mutex) func(int) *Mutex { return func(i int) *Mutex { return &ms[i] } }
	for _, slot := range []int{0, 2} {
		for _, tc := range []struct {
			name string
			body func(p *Proc, ms []Mutex)
			want string
		}{
			{
				"recursive lock",
				func(p *Proc, ms []Mutex) {
					ms[slot].Lock(p)
					newScanner(p).sweep(p, 0, len(ms), lockOf(ms), func(int) bool { return false })
				},
				`sim: process "sweeper" panicked: sim: recursive Mutex.Lock by sweeper`,
			},
			{
				"visit panics",
				func(p *Proc, ms []Mutex) {
					newScanner(p).sweep(p, 0, len(ms), lockOf(ms), func(i int) bool {
						if i == slot {
							panic("boom")
						}
						return false
					})
				},
				`sim: process "sweeper" panicked: boom`,
			},
			{
				"visit parks",
				func(p *Proc, ms []Mutex) {
					newScanner(p).sweep(p, 0, len(ms), lockOf(ms), func(i int) bool {
						if i == slot {
							p.Sleep(0)
						}
						return false
					})
				},
				`sim: process "sweeper" panicked: sim: Drive step parked process sweeper`,
			},
		} {
			t.Run(fmt.Sprintf("%s at slot %d", tc.name, slot), func(t *testing.T) {
				if r := sweepPanic(t, tc.body); r != tc.want {
					t.Fatalf("Run panicked with %#v, want %q", r, tc.want)
				}
			})
		}
	}
	// The recursive-lock message is Mutex.Lock's own.
	r := sweepPanic(t, func(p *Proc, ms []Mutex) {
		ms[0].Lock(p)
		ms[0].Lock(p)
	})
	if want := `sim: process "sweeper" panicked: sim: recursive Mutex.Lock by sweeper`; r != want {
		t.Fatalf("Mutex.Lock panicked with %#v, want %q", r, want)
	}
}

// TestCloseReapsSweepingProcs: Close unwinds processes parked in a
// Scan's Drive, on a lock charge or on a handoff, and leaves no
// goroutine.
func TestCloseReapsSweepingProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	ms := make([]Mutex, 4)
	for i := range ms {
		ms[i].AcquireCost = 0.3e-6
	}
	lock := func(i int) *Mutex { return &ms[i] }
	none := func(int) bool { return false }
	e.Spawn("holder", func(p *Proc) {
		ms[2].Lock(p)
		p.Suspend() // never resumed: slot 2 stays held
	})
	e.Spawn("handoff", func(p *Proc) { newScanner(p).sweep(p, 0, len(ms), lock, none) })
	e.Spawn("charge", func(p *Proc) {
		ms2 := make([]Mutex, 64)
		for i := range ms2 {
			ms2[i].AcquireCost = 1
		}
		newScanner(p).sweep(p, 0, len(ms2), func(i int) *Mutex { return &ms2[i] }, none)
	})
	e.Run(10)
	if n := e.LiveProcs(); n != 3 {
		t.Fatalf("LiveProcs = %d, want 3 parked", n)
	}
	if len(ms[2].waiters) != 1 {
		t.Fatal("the handoff sweeper is not waiting on slot 2")
	}
	e.Close()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", n)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("NumGoroutine after Close = %d, want at most %d as before Spawn", n, before)
	}
}

// TestSweepAllocs pins a steady-state Scan at zero allocations: the
// Drive state lives in the Proc, and the step, lock and visit are bound
// once.
func TestSweepAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	ms := make([]Mutex, 64)
	for i := range ms {
		ms[i].AcquireCost = 0.3e-6
	}
	lock := func(i int) *Mutex { return &ms[i] }
	hits := 0
	visit := func(i int) bool { return i == 40 }
	e.Spawn("sweeper", func(p *Proc) {
		sc := newScanner(p)
		for {
			if i := sc.sweep(p, 0, len(ms), lock, visit); i < len(ms) {
				hits++
				ms[i].Unlock(p)
				sc.sweep(p, i+1, len(ms), lock, visit)
			}
		}
	})
	e.Run(1e-3)
	if a := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 1e-4) }); a != 0 {
		t.Errorf("steady-state sweeps: %v allocs, want 0", a)
	}
	if hits == 0 {
		t.Error("no sweep hit")
	}
}
