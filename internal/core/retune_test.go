package core

import (
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// retuneApp is buildApp with a hook at each reduction barrier — the
// quiescent point the adaptive controller retunes from.
type retuneApp struct {
	*oocApp
	onBarrier func(iter int)
}

func buildRetuneApp(env *env, nChares int, blockSize int64, iters int) *retuneApp {
	app := &retuneApp{oocApp: &oocApp{env: env, iters: iters}}
	for i := 0; i < nChares; i++ {
		app.handles = append(app.handles, env.mg.NewHandle("blk", blockSize))
	}
	app.arr = env.rt.NewArray("ooc", nChares, func(i int) charm.Chare {
		return &oocChare{block: app.handles[i]}
	}, nil)
	var red *charm.Reduction
	red = env.rt.NewReduction(nChares, func() {
		app.curIter++
		app.iterEnd = append(app.iterEnd, env.e.Now())
		if app.onBarrier != nil {
			app.onBarrier(app.curIter)
		}
		if app.curIter < app.iters {
			app.arr.Broadcast(-1, app.kern, nil)
		} else {
			app.done = true
		}
	})
	app.kern = app.arr.Register(charm.Entry{
		Name:     "kern",
		Prefetch: true,
		Deps: func(el *charm.Element, msg *charm.Message) []charm.DataDep {
			return []charm.DataDep{{Handle: el.Obj.(*oocChare).block, Mode: charm.ReadWrite}}
		},
		Fn: func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
			env.mg.RunKernel(p, el.Array().Entry("kern").Deps(el, msg), KernelSpec{TrafficScale: 1})
			red.Contribute()
		},
	})
	return app
}

// TestRetuneIOThreadsOnline raises and lowers the SingleIO thread pool
// at iteration barriers; the run must stay live and audit-clean, and
// the pool must actually grow.
func TestRetuneIOThreadsOnline(t *testing.T) {
	env := newEnv(t, 4, DefaultOptions(SingleIO))
	app := buildRetuneApp(env, 12, 512*1024*1024, 4)
	app.onBarrier = func(iter int) {
		o := env.mg.Options()
		switch iter {
		case 1:
			o.IOThreads = 3
		case 2:
			o.IOThreads = 1
		}
		if err := env.mg.Retune(o); err != nil {
			t.Errorf("retune at barrier %d: %v", iter, err)
		}
	}
	app.run(t)
	assertQuiescent(t, env)
	s := env.mg.strat.(*singleIO)
	if s.spawned != 3 || s.active != 1 {
		t.Fatalf("pool spawned=%d active=%d, want 3/1", s.spawned, s.active)
	}
	if env.rt.Stats.TasksExecuted != 12*4 {
		t.Fatalf("executed %d tasks, want 48", env.rt.Stats.TasksExecuted)
	}
}

// TestRetuneModeSwitchAtBarrier switches SingleIO -> MultiIO at a
// barrier, then tightens the prefetch depth: the whole-strategy switch
// the adaptive controller performs when wait share stays dominant.
func TestRetuneModeSwitchAtBarrier(t *testing.T) {
	env := newEnv(t, 4, DefaultOptions(SingleIO))
	app := buildRetuneApp(env, 12, 512*1024*1024, 4)
	app.onBarrier = func(iter int) {
		o := env.mg.Options()
		switch iter {
		case 1:
			o.Mode = MultiIO
			o.IOThreads = 0
		case 2:
			o.PrefetchDepth = 1
		}
		if err := env.mg.Retune(o); err != nil {
			t.Errorf("retune at barrier %d: %v", iter, err)
		}
	}
	app.run(t)
	assertQuiescent(t, env)
	if _, ok := env.mg.strat.(*multiIO); !ok {
		t.Fatalf("strategy after switch is %s, want multi-io", env.mg.strat.name())
	}
	if env.mg.Mode() != MultiIO || env.mg.Options().PrefetchDepth != 1 {
		t.Fatalf("options not updated: %+v", env.mg.Options())
	}
	if env.rt.Stats.TasksExecuted != 12*4 {
		t.Fatalf("executed %d tasks, want 48", env.rt.Stats.TasksExecuted)
	}
}

// taskCounter is a minimal sink counting task completions.
type taskCounter struct {
	n      int
	onTask func(n int)
}

func (c *taskCounter) Observe(e charm.Event) {
	if e.Kind != charm.EvTaskDone {
		return
	}
	c.n++
	if c.onTask != nil {
		c.onTask(c.n)
	}
}

// TestObserverSeesEveryTask: the stream's task-done event fires once per
// executed task, including inline fast-path ones.
func TestObserverSeesEveryTask(t *testing.T) {
	env := newEnv(t, 4, DefaultOptions(MultiIO))
	ctr := &taskCounter{}
	env.rt.Attach(ctr)
	app := buildApp(env, 12, 512*1024*1024, 3, nil)
	app.run(t)
	if want := int(env.rt.Stats.TasksExecuted); ctr.n != want {
		t.Fatalf("observer saw %d tasks, runtime executed %d", ctr.n, want)
	}
}

// TestRetuneModeSwitchRejectedMidFlight: a mode switch attempted from a
// task's completion hook — staging protocol busy — must be refused.
func TestRetuneModeSwitchRejectedMidFlight(t *testing.T) {
	env := newEnv(t, 4, DefaultOptions(SingleIO))
	var switchErr error
	seen := false
	ctr := &taskCounter{onTask: func(n int) {
		if n != 6 { // mid-run: plenty of tasks still staged or queued
			return
		}
		seen = true
		o := env.mg.Options()
		o.Mode = MultiIO
		switchErr = env.mg.Retune(o)
	}}
	env.rt.Attach(ctr)
	app := buildApp(env, 12, 512*1024*1024, 3, nil)
	app.run(t)
	if !seen {
		t.Fatal("observer hook never reached task 6")
	}
	if switchErr == nil {
		t.Fatal("mid-flight mode switch was accepted")
	}
	if !strings.Contains(switchErr.Error(), "quiescent") {
		t.Fatalf("error %q does not explain the quiescence requirement", switchErr)
	}
}

// TestRetuneRejectsStructuralChanges: the fixed fields cannot move.
func TestRetuneRejectsStructuralChanges(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(SingleIO))
	for name, mut := range map[string]func(*Options){
		"HBMReserve":      func(o *Options) { o.HBMReserve += 1 },
		"SharedWaitQueue": func(o *Options) { o.SharedWaitQueue = true },
		"Audit":           func(o *Options) { o.Audit = false },
		"mode to naive":   func(o *Options) { o.Mode = Baseline },
		"invalid knob":    func(o *Options) { o.IOThreads = -1 },
	} {
		o := env.mg.Options()
		mut(&o)
		if err := env.mg.Retune(o); err == nil {
			t.Errorf("%s: retune accepted", name)
		}
	}
}

// TestRetunePrefetchDepthMidPass toggles Multiple IO's PrefetchDepth
// between 1 and 2 every 2 ms of virtual time, between barriers, so
// retunes land while IO threads are part way through a staging pass. A
// pass keeps the bound it read when it began, after its evictions (a
// pass that re-read it at every claim ends this run at 0.475 s, with
// 3,180 events scheduled). The end time and event counts are pinned to
// full precision.
func TestRetunePrefetchDepthMidPass(t *testing.T) {
	opts := DefaultOptions(MultiIO)
	opts.PrefetchDepth = 1
	env := newEnv(t, 4, opts)
	app := buildRetuneApp(env, 24, 256<<20, 3)
	var tick func()
	tick = func() {
		if app.done {
			return
		}
		o := env.mg.Options()
		o.PrefetchDepth = 3 - o.PrefetchDepth
		if err := env.mg.Retune(o); err != nil {
			t.Error(err)
		}
		env.e.After(2e-3, tick)
	}
	env.e.After(2e-3, tick)
	app.run(t)
	assertQuiescent(t, env)
	if end := app.iterEnd[len(app.iterEnd)-1]; end != 0.45005890000000104 {
		t.Errorf("run ended at %.17g, want 0.45005890000000104", end)
	}
	st := env.e.EventStats()
	st.Resumes, st.Steps = 0, 0
	if want := (sim.EventStats{Scheduled: 2800, Fired: 2663, Cancelled: 137, Reused: 2767}); st != want {
		t.Errorf("EventStats = %+v, want %+v", st, want)
	}
}
