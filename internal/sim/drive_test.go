package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// drivePlan extends a sweep plan with steppers: processes that run a
// program of lock, condition, sleep and Suspend/Resume operations, once
// as blocking body code and once as a Drive step machine interpreting
// the same program. The sweepers and contenders run as in the sweep
// plan, beside them, in both runs.
type drivePlan struct {
	sweepPlan
	condCosts []Time // AcquireCost of each condition's mutex
	boxes     int    // Suspend/Resume mailboxes
	steppers  []stepperPlan
}

type stepperPlan struct {
	start Time
	ops   []driveOp
}

type driveKind uint8

const (
	opHold  driveKind = iota // lock slot, sleep hold, unlock, sleep gap
	opSleep                  // sleep gap
	opWait                   // take a token of condition slot, waiting in a predicate loop
	opPost                   // add n tokens to condition slot, then Broadcast or n Signals
	opTake                   // take a token of mailbox slot, suspending until given one
	opGive                   // add n tokens to mailbox slot, resuming up to n suspended takers
)

type driveOp struct {
	kind      driveKind
	slot      int
	hold, gap Time
	n         int
	broadcast bool
	// chunk ends a Drive of the stepped run after this op, so the body
	// resumes; the blocking run logs the same point.
	chunk bool
}

// randomDrivePlan draws a sweep plan with randomSweepPlan and adds 1 to
// maxProcs steppers on up to 3 conditions and 3 mailboxes. Each stepper
// either only produces tokens or only consumes them, and consumers take
// exactly the tokens producers add, so every wait can end.
func randomDrivePlan(r *rand.Rand, maxSlots, maxProcs int) drivePlan {
	pl := drivePlan{sweepPlan: randomSweepPlan(r, maxSlots, maxProcs)}
	durs := []Time{0, 0.3e-6, 0.3e-6, 1e-6, 2.5e-6}
	dur := func() Time { return durs[r.Intn(len(durs))] }
	for k := 1 + r.Intn(3); k > 0; k-- {
		pl.condCosts = append(pl.condCosts, []Time{0, 0.3e-6, 0.7e-6}[r.Intn(3)])
	}
	pl.boxes = 1 + r.Intn(3)
	n := len(pl.costs)
	var consumers []int
	// Tokens produced per condition, then per mailbox.
	tokens := [2][]int{make([]int, len(pl.condCosts)), make([]int, pl.boxes)}
	for k := 1 + r.Intn(maxProcs); k > 0; k-- {
		producer := r.Intn(2) == 0
		dp := stepperPlan{start: dur()}
		for ops := 1 + r.Intn(6); ops > 0; ops-- {
			op := driveOp{hold: dur(), gap: dur(), chunk: r.Intn(3) == 0}
			switch c := r.Intn(4); {
			case c == 0:
				op.kind, op.slot = opHold, r.Intn(n)
			case c == 1:
				op.kind = opSleep
			case producer:
				op.kind, op.n = opPost+2*driveKind(r.Intn(2)), 1+r.Intn(3)
				if op.kind == opPost {
					op.slot = r.Intn(len(pl.condCosts))
					op.broadcast = r.Intn(2) == 0
					tokens[0][op.slot] += op.n
				} else {
					op.slot = r.Intn(pl.boxes)
					tokens[1][op.slot] += op.n
				}
			default:
				op.kind = opHold
				op.slot = r.Intn(n)
			}
			dp.ops = append(dp.ops, op)
		}
		if !producer {
			consumers = append(consumers, len(pl.steppers))
		}
		pl.steppers = append(pl.steppers, dp)
	}
	// Hand every token to a random consumer, at a random place in its
	// program; with no consumer, a producer takes its own tokens last.
	for kind, per := range tokens {
		for slot, nt := range per {
			for ; nt > 0; nt-- {
				d := len(pl.steppers) - 1
				if len(consumers) > 0 {
					d = consumers[r.Intn(len(consumers))]
				}
				op := driveOp{kind: opWait + 2*driveKind(kind), slot: slot, chunk: r.Intn(3) == 0}
				ops := pl.steppers[d].ops
				at := len(ops)
				if len(consumers) > 0 {
					at = r.Intn(len(ops) + 1)
				}
				ops = append(ops, driveOp{})
				copy(ops[at+1:], ops[at:])
				ops[at] = op
				pl.steppers[d].ops = ops
			}
		}
	}
	for i := range pl.steppers {
		pl.steppers[i].ops[len(pl.steppers[i].ops)-1].chunk = true
	}
	return pl
}

// driveWorld is the shared state a drive plan's steppers act on.
type driveWorld struct {
	e        *Engine
	ms       []Mutex // the sweep plan's row
	condMu   []Mutex
	conds    []*Cond
	tokens   []int // per condition, guarded by its mutex
	box      []int // per mailbox
	sleepers [][]*Proc
	log      []logEntry
}

func (w *driveWorld) note(p *Proc, slot int, action string) {
	w.log = append(w.log, logEntry{w.e.Now(), p.Name(), slot, action})
}

// give adds op.n tokens to mailbox op.slot and resumes up to op.n of
// its suspended takers. It never parks.
func (w *driveWorld) give(p *Proc, op driveOp) {
	w.box[op.slot] += op.n
	w.note(p, op.slot, "give")
	for k := 0; k < op.n && len(w.sleepers[op.slot]) > 0; k++ {
		s := w.sleepers[op.slot][0]
		w.sleepers[op.slot] = w.sleepers[op.slot][1:]
		s.Resume()
	}
}

// post adds op.n tokens to condition op.slot under its mutex, which p
// holds, and wakes its waiters after releasing it.
func (w *driveWorld) post(p *Proc, op driveOp) {
	w.tokens[op.slot] += op.n
	w.note(p, op.slot, "post")
	w.condMu[op.slot].Unlock(p)
	if op.broadcast {
		w.conds[op.slot].Broadcast()
		return
	}
	for k := 0; k < op.n; k++ {
		w.conds[op.slot].Signal()
	}
}

// runBlocking runs ops as blocking body code.
func (w *driveWorld) runBlocking(p *Proc, ops []driveOp) {
	for _, op := range ops {
		switch op.kind {
		case opHold:
			w.ms[op.slot].Lock(p)
			w.note(p, op.slot, "lock")
			p.Sleep(op.hold)
			w.note(p, op.slot, "unlock")
			w.ms[op.slot].Unlock(p)
			p.Sleep(op.gap)
		case opSleep:
			p.Sleep(op.gap)
			w.note(p, -1, "slept")
		case opWait:
			w.condMu[op.slot].Lock(p)
			for w.tokens[op.slot] == 0 {
				w.conds[op.slot].Wait(p)
				w.note(p, op.slot, "woke")
			}
			w.tokens[op.slot]--
			w.note(p, op.slot, "take")
			w.condMu[op.slot].Unlock(p)
		case opPost:
			w.condMu[op.slot].Lock(p)
			w.post(p, op)
		case opTake:
			for w.box[op.slot] == 0 {
				w.sleepers[op.slot] = append(w.sleepers[op.slot], p)
				p.Suspend()
				w.note(p, op.slot, "resumed")
			}
			w.box[op.slot]--
			w.note(p, op.slot, "got")
		case opGive:
			w.give(p, op)
		}
		if op.chunk {
			w.note(p, -1, "chunk")
		}
	}
}

// opMachine interprets ops as a Drive step: at is how far the current
// op has got, lock the acquisition under way and waited whether p is
// back from a condition or mailbox wait.
type opMachine struct {
	w      *driveWorld
	p      *Proc
	ops    []driveOp
	pc     int
	at     int
	lock   LockStep
	waited bool
}

// step runs ops until p must park, and reports false, or until an op
// that ends a chunk is done, and reports true.
func (m *opMachine) step() bool {
	w, p := m.w, m.p
	for m.pc < len(m.ops) {
		op := m.ops[m.pc]
		switch op.kind {
		case opHold:
			switch m.at {
			case 0:
				if !w.ms[op.slot].Acquire(p, &m.lock) {
					return false
				}
				w.note(p, op.slot, "lock")
				p.ArmSleep(op.hold)
				m.at = 1
				return false
			case 1:
				w.note(p, op.slot, "unlock")
				w.ms[op.slot].Unlock(p)
				p.ArmSleep(op.gap)
				m.at = 2
				return false
			}
		case opSleep:
			if m.at == 0 {
				p.ArmSleep(op.gap)
				m.at = 1
				return false
			}
			w.note(p, -1, "slept")
		case opWait:
			if !w.condMu[op.slot].Acquire(p, &m.lock) {
				return false
			}
			if m.waited {
				m.waited = false
				w.note(p, op.slot, "woke")
			}
			if w.tokens[op.slot] == 0 {
				w.conds[op.slot].Join(p)
				m.waited = true
				return false
			}
			w.tokens[op.slot]--
			w.note(p, op.slot, "take")
			w.condMu[op.slot].Unlock(p)
		case opPost:
			if !w.condMu[op.slot].Acquire(p, &m.lock) {
				return false
			}
			w.post(p, op)
		case opTake:
			if m.waited {
				m.waited = false
				w.note(p, op.slot, "resumed")
			}
			if w.box[op.slot] == 0 {
				w.sleepers[op.slot] = append(w.sleepers[op.slot], p)
				m.waited = true
				return false
			}
			w.box[op.slot]--
			w.note(p, op.slot, "got")
		case opGive:
			w.give(p, op)
		}
		m.pc, m.at = m.pc+1, 0
		if op.chunk {
			return true
		}
	}
	return true
}

// runDrivePlan runs pl with its steppers as blocking code or, when
// stepped, as Drive steps, and returns the log, the engine's counts and
// the processes left parked (Close then reaps them).
func runDrivePlan(pl drivePlan, stepped bool) ([]logEntry, EventStats, []string) {
	e := NewEngine(1)
	defer e.Close()
	w := &driveWorld{
		e:        e,
		ms:       make([]Mutex, len(pl.costs)),
		condMu:   make([]Mutex, len(pl.condCosts)),
		tokens:   make([]int, len(pl.condCosts)),
		box:      make([]int, pl.boxes),
		sleepers: make([][]*Proc, pl.boxes),
	}
	for i, c := range pl.costs {
		w.ms[i].AcquireCost = c
	}
	for i, c := range pl.condCosts {
		w.condMu[i].AcquireCost = c
		w.conds = append(w.conds, NewCond(&w.condMu[i]))
	}
	lock := func(i int) *Mutex { return &w.ms[i] }
	n := len(w.ms)
	for k, sp := range pl.sweepers {
		sp := sp
		e.Spawn(fmt.Sprintf("sweeper%d", k), func(p *Proc) {
			sc := newScanner(p)
			p.Sleep(sp.start)
			for _, stops := range sp.rounds {
				visit := func(i int) bool {
					w.note(p, i, "visit")
					return stops[i]
				}
				for i := 0; i < n; i++ {
					if i = sc.sweep(p, i, n, lock, visit); i == n {
						break
					}
					w.note(p, i, "hit")
					p.Sleep(sp.hold)
					w.note(p, i, "unlock")
					w.ms[i].Unlock(p)
				}
				w.note(p, n, "end")
				p.Sleep(sp.gap)
			}
		})
	}
	for k, cp := range pl.contenders {
		cp := cp
		e.Spawn(fmt.Sprintf("contender%d", k), func(p *Proc) {
			p.Sleep(cp.start)
			for _, op := range cp.ops {
				w.ms[op.slot].Lock(p)
				w.note(p, op.slot, "lock")
				p.Sleep(op.hold)
				w.note(p, op.slot, "unlock")
				w.ms[op.slot].Unlock(p)
				p.Sleep(op.gap)
			}
		})
	}
	for k, dp := range pl.steppers {
		dp := dp
		e.Spawn(fmt.Sprintf("stepper%d", k), func(p *Proc) {
			p.Sleep(dp.start)
			if !stepped {
				w.runBlocking(p, dp.ops)
				return
			}
			m := &opMachine{w: w, p: p, ops: dp.ops}
			for m.pc < len(m.ops) {
				p.Drive(m.step)
				w.note(p, -1, "chunk")
			}
		})
	}
	e.RunAll()
	return w.log, e.EventStats(), e.BlockedProcNames()
}

// checkDrivePlan runs pl blocking and stepped and fails unless both give
// the same log, leave the same processes parked and count the same
// events but Resumes, which the stepped run must not raise, and Steps:
// every wake either resumes a process or is a step. It returns both
// runs' Resumes and whether the plan ran to the end.
func checkDrivePlan(t *testing.T, pl drivePlan) (stepped, blocking int64, finished bool) {
	t.Helper()
	got, gotSt, gotParked := runDrivePlan(pl, true)
	want, wantSt, wantParked := runDrivePlan(pl, false)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("plan %+v: step %d is %+v stepped, %+v blocking", pl, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("plan %+v: %d steps stepped, %d blocking", pl, len(got), len(want))
	}
	if fmt.Sprint(gotParked) != fmt.Sprint(wantParked) {
		t.Fatalf("plan %+v: %v left parked stepped, %v blocking", pl, gotParked, wantParked)
	}
	if gotSt.Resumes > wantSt.Resumes {
		t.Errorf("plan %+v: %d resumes stepped, more than the blocking run's %d", pl, gotSt.Resumes, wantSt.Resumes)
	}
	if gotSt.Resumes+gotSt.Steps != wantSt.Resumes+wantSt.Steps {
		t.Errorf("plan %+v: %d resumes and %d steps stepped, %d and %d blocking: the wakes differ", pl, gotSt.Resumes, gotSt.Steps, wantSt.Resumes, wantSt.Steps)
	}
	stepped, blocking = gotSt.Resumes, wantSt.Resumes
	gotSt.Resumes, wantSt.Resumes = 0, 0
	gotSt.Steps, wantSt.Steps = 0, 0
	if gotSt != wantSt {
		t.Fatalf("plan %+v: EventStats %+v stepped, %+v blocking", pl, gotSt, wantSt)
	}
	return stepped, blocking, len(wantParked) == 0
}

// TestDriveMatchesBlocking checks Drive against blocking code on seeded
// random programs mixing charged and uncharged locks with handoffs,
// condition waits in predicate loops woken by Signal and Broadcast,
// sleeps of zero and more, and Suspend/Resume waits, beside the sweep
// plans' sweepers and contenders: the same actions at the same times in
// the same order, and the same events.
func TestDriveMatchesBlocking(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var stepped, blocking int64
	finished := 0
	const plans = 500
	for i := 0; i < plans; i++ {
		s, b, ok := checkDrivePlan(t, randomDrivePlan(r, 8, 3))
		stepped += s
		blocking += b
		if ok {
			finished++
		}
	}
	if stepped >= blocking {
		t.Errorf("%d resumes stepped over all plans, want fewer than the blocking runs' %d", stepped, blocking)
	}
	if finished < plans*9/10 {
		t.Errorf("only %d of %d plans ran to the end", finished, plans)
	}
	t.Logf("resumes: %d stepped, %d blocking; %d of %d plans ran to the end", stepped, blocking, finished, plans)
}

// FuzzDrive checks Drive against blocking code on plans drawn from the
// fuzzed seed, with up to 1+slots%16 mutexes and 1+procs%6 processes of
// each kind.
func FuzzDrive(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(2))
	f.Add(int64(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(15), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, slots, procs uint8) {
		checkDrivePlan(t, randomDrivePlan(rand.New(rand.NewSource(seed)), 1+int(slots%16), 1+int(procs%6)))
	})
}

// drivePanic runs body in a process named "stepper" and returns what Run
// panicked with, then closes the engine and checks it reaped every
// process.
func drivePanic(t *testing.T, body func(p *Proc)) any {
	t.Helper()
	e := NewEngine(1)
	e.Spawn("stepper", body)
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

// TestDrivePanics: a step that parks, panics, or drives itself or a
// Scan of its own each surfaces from Run naming the process, whether the step
// runs in the body (its first call) or from the callback that woke the
// process (after two sleeps).
func TestDrivePanics(t *testing.T) {
	for _, after := range []int{0, 2} {
		for _, tc := range []struct {
			name string
			act  func(p *Proc)
			want string
		}{
			{"step parks", func(p *Proc) { p.Sleep(1) }, `sim: process "stepper" panicked: sim: Drive step parked process stepper`},
			{"step locks", func(p *Proc) {
				var m Mutex
				m.Lock(p)
				m.Lock(p)
			}, `sim: process "stepper" panicked: sim: recursive Mutex.Lock by stepper`},
			{"step panics", func(p *Proc) { panic("boom") }, `sim: process "stepper" panicked: boom`},
			{"step drives", func(p *Proc) { p.Drive(func() bool { return true }) },
				`sim: process "stepper" panicked: sim: Drive inside a Drive step, process stepper`},
			{"step sweeps", func(p *Proc) {
				ms := make([]Mutex, 2)
				newScanner(p).sweep(p, 0, len(ms), func(i int) *Mutex { return &ms[i] }, func(int) bool { return false })
			}, `sim: process "stepper" panicked: sim: Drive inside a Drive step, process stepper`},
		} {
			t.Run(fmt.Sprintf("%s after %d sleeps", tc.name, after), func(t *testing.T) {
				r := drivePanic(t, func(p *Proc) {
					calls := 0
					p.Drive(func() bool {
						if calls == after {
							tc.act(p)
						}
						calls++
						p.ArmSleep(1e-6)
						return false
					})
				})
				if r != tc.want {
					t.Fatalf("Run panicked with %#v, want %q", r, tc.want)
				}
			})
		}
	}
}

// TestCloseReapsDrivingProcs: Close unwinds processes parked in a Drive
// step, on a lock charge, a handoff, a condition and a timer, and leaves
// no goroutine. (memsim's TestCloseReapsFlowStep covers a flow.)
func TestCloseReapsDrivingProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	held := Mutex{}
	charged := Mutex{AcquireCost: 100}
	var condMu Mutex
	cond := NewCond(&condMu)
	e.Spawn("holder", func(p *Proc) {
		held.Lock(p)
		p.Suspend() // never resumed: held stays held
	})
	var s [3]LockStep
	e.Spawn("handoff", func(p *Proc) { p.Drive(func() bool { return held.Acquire(p, &s[0]) }) })
	e.Spawn("charge", func(p *Proc) { p.Drive(func() bool { return charged.Acquire(p, &s[1]) }) })
	e.Spawn("cond", func(p *Proc) {
		waited := false
		p.Drive(func() bool {
			if !condMu.Acquire(p, &s[2]) {
				return false
			}
			if !waited {
				waited = true
				cond.Join(p)
				return false
			}
			condMu.Unlock(p)
			return true
		})
	})
	e.Spawn("timer", func(p *Proc) {
		armed := false
		p.Drive(func() bool {
			if !armed {
				armed = true
				p.ArmSleep(100)
				return false
			}
			return true
		})
	})
	e.Run(10)
	if n := e.LiveProcs(); n != 5 {
		t.Fatalf("LiveProcs = %d, want 5 parked", n)
	}
	if len(held.waiters) != 1 || cond.NumWaiters() != 1 || !charged.HeldBy(e.procs[2]) {
		t.Fatal("the steppers are not parked where the test put them")
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

// TestDriveResumesOnce: a step that takes eight charged locks in turn
// resumes its process once, where Lock resumes it after every charge,
// and the same wakes are counted as steps.
func TestDriveResumesOnce(t *testing.T) {
	for _, stepped := range []bool{true, false} {
		e := NewEngine(1)
		ms := make([]Mutex, 8)
		for i := range ms {
			ms[i].AcquireCost = 0.3e-6
		}
		e.Spawn("stepper", func(p *Proc) {
			if !stepped {
				for i := range ms {
					ms[i].Lock(p)
				}
				return
			}
			i := 0
			var s LockStep
			p.Drive(func() bool {
				for ; i < len(ms); i++ {
					if !ms[i].Acquire(p, &s) {
						return false
					}
				}
				return true
			})
		})
		e.RunAll()
		want := EventStats{Scheduled: 9, Fired: 9, Reused: 8, Resumes: 9}
		if stepped {
			want.Resumes, want.Steps = 2, 7
		}
		if st := e.EventStats(); st != want {
			t.Errorf("stepped %v: EventStats %+v, want %+v", stepped, st, want)
		}
		e.Close()
	}
}

// TestDriveAllocs pins a steady-state Drive at zero allocations: its
// state lives in the Proc, and the step is bound once.
func TestDriveAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	m := Mutex{AcquireCost: 0.3e-6}
	cond := NewCond(&m)
	rounds := 0
	e.Spawn("waiter", func(p *Proc) {
		var s LockStep
		waited := false
		step := func() bool {
			if !m.Acquire(p, &s) {
				return false
			}
			if !waited {
				waited = true
				cond.Join(p)
				return false
			}
			waited = false
			m.Unlock(p)
			return true
		}
		for {
			p.Drive(step)
			rounds++
		}
	})
	e.Spawn("signaller", func(p *Proc) {
		for {
			p.Sleep(1e-6)
			cond.Signal()
		}
	})
	e.Run(1e-3)
	if a := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 1e-4) }); a != 0 {
		t.Errorf("steady-state drives: %v allocs, want 0", a)
	}
	if rounds == 0 {
		t.Error("no drive ended")
	}
}
