package charm

import (
	"testing"

	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// testRT builds a small runtime for scheduler tests.
func testRT(t *testing.T, numPEs int) (*sim.Engine, *Runtime) {
	t.Helper()
	e := sim.NewEngine(1)
	m := topology.KNL7250().MustBuild(e)
	rt := NewRuntime(m, numPEs, DefaultParams())
	t.Cleanup(e.Close)
	return e, rt
}

type counterChare struct{ runs int }

func TestEntryExecution(t *testing.T) {
	e, rt := testRT(t, 2)
	arr := rt.NewArray("c", 4, func(i int) Chare { return &counterChare{} }, nil)
	hit := arr.Register(Entry{
		Name: "hit",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			el.Obj.(*counterChare).runs++
		},
	})
	rt.Main(func(p *sim.Proc) {
		arr.Broadcast(-1, hit, nil)
	})
	e.RunAll()
	for i := 0; i < 4; i++ {
		if got := arr.Elem(i).Obj.(*counterChare).runs; got != 1 {
			t.Fatalf("element %d ran %d times", i, got)
		}
	}
	if rt.Stats.MessagesSent != 4 || rt.Stats.TasksExecuted != 4 {
		t.Fatalf("stats: %+v", rt.Stats)
	}
}

func TestRoundRobinMapping(t *testing.T) {
	_, rt := testRT(t, 4)
	arr := rt.NewArray("c", 8, func(i int) Chare { return nil }, nil)
	for i := 0; i < 8; i++ {
		if arr.Elem(i).PE != i%4 {
			t.Fatalf("element %d on PE %d, want %d", i, arr.Elem(i).PE, i%4)
		}
	}
}

func TestBlockMapping(t *testing.T) {
	_, rt := testRT(t, 4)
	arr := rt.NewArray("c", 8, func(i int) Chare { return nil }, MapBlock(8, 4))
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if arr.Elem(i).PE != w {
			t.Fatalf("block map elem %d -> PE %d, want %d", i, arr.Elem(i).PE, w)
		}
	}
}

func TestSerialExecutionPerPE(t *testing.T) {
	// Two chares on the same PE must not overlap execution.
	e, rt := testRT(t, 1)
	var active, maxActive int
	arr := rt.NewArray("c", 2, func(i int) Chare { return nil }, nil)
	slow := arr.Register(Entry{
		Name: "slow",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(1)
			active--
		},
	})
	rt.Main(func(p *sim.Proc) { arr.Broadcast(-1, slow, nil) })
	e.RunAll()
	if maxActive != 1 {
		t.Fatalf("max concurrent entries on one PE = %d, want 1", maxActive)
	}
}

func TestParallelAcrossPEs(t *testing.T) {
	e, rt := testRT(t, 2)
	arr := rt.NewArray("c", 2, func(i int) Chare { return nil }, nil)
	var finished []sim.Time
	slow := arr.Register(Entry{
		Name: "slow",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			p.Sleep(1)
			finished = append(finished, p.Now())
		},
	})
	rt.Main(func(p *sim.Proc) { arr.Broadcast(-1, slow, nil) })
	e.RunAll()
	if len(finished) != 2 {
		t.Fatalf("finished %d", len(finished))
	}
	// Both ran in parallel: completion within scheduling epsilon.
	if finished[1]-finished[0] > 1e-4 {
		t.Fatalf("PEs did not run in parallel: %v", finished)
	}
}

func TestChainedSends(t *testing.T) {
	e, rt := testRT(t, 2)
	arr := rt.NewArray("c", 2, func(i int) Chare { return &counterChare{} }, nil)
	var pong, ping *Entry
	pong = arr.Register(Entry{
		Name: "pong",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			el.Obj.(*counterChare).runs++
		},
	})
	ping = arr.Register(Entry{
		Name: "ping",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			arr.Send(el.Index, 1-el.Index, pong, "ball")
		},
	})
	rt.Main(func(p *sim.Proc) { arr.Send(-1, 0, ping, nil) })
	e.RunAll()
	if arr.Elem(1).Obj.(*counterChare).runs != 1 {
		t.Fatal("entry-to-entry send failed")
	}
}

func TestMessagePayloadAndFrom(t *testing.T) {
	e, rt := testRT(t, 1)
	arr := rt.NewArray("c", 1, func(i int) Chare { return nil }, nil)
	var gotData interface{}
	var gotFrom int
	ent := arr.Register(Entry{
		Name: "recv",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			gotData, gotFrom = msg.Data, msg.From
		},
	})
	rt.Main(func(p *sim.Proc) { arr.Send(7, 0, ent, 42) })
	e.RunAll()
	if gotData != 42 || gotFrom != 7 {
		t.Fatalf("payload %v from %d", gotData, gotFrom)
	}
}

// fakeInterceptor queues every intercepted task and releases them all
// when released is called.
type fakeInterceptor struct {
	held []*struct {
		pe *PE
		t  *Task
	}
	intercepted int
	postCalls   int
	created     int
	admit       bool // when true, Intercept declines ownership
}

func (f *fakeInterceptor) Intercept(p *sim.Proc, pe *PE, t *Task) bool {
	f.intercepted++
	if f.admit {
		return false
	}
	f.held = append(f.held, &struct {
		pe *PE
		t  *Task
	}{pe, t})
	return true
}

func (f *fakeInterceptor) PostProcess(p *sim.Proc, pe *PE, t *Task) { f.postCalls++ }

func (f *fakeInterceptor) TaskCreated(t *Task) { f.created++ }

type fakeHandle struct {
	name string
	size int64
}

func (h *fakeHandle) Size() int64       { return h.size }
func (h *fakeHandle) BlockName() string { return h.name }

func TestInterceptorFlow(t *testing.T) {
	e, rt := testRT(t, 1)
	ic := &fakeInterceptor{}
	rt.SetInterceptor(ic)
	h := &fakeHandle{name: "A", size: 64}
	arr := rt.NewArray("c", 1, func(i int) Chare { return &counterChare{} }, nil)
	kern := arr.Register(Entry{
		Name:     "kern",
		Prefetch: true,
		Deps: func(el *Element, msg *Message) []DataDep {
			return []DataDep{{Handle: h, Mode: ReadWrite}}
		},
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			el.Obj.(*counterChare).runs++
		},
	})
	rt.Main(func(p *sim.Proc) { arr.Send(-1, 0, kern, nil) })
	e.RunAll()
	if ic.intercepted != 1 {
		t.Fatalf("intercepted = %d, want 1", ic.intercepted)
	}
	if arr.Elem(0).Obj.(*counterChare).runs != 0 {
		t.Fatal("held task ran anyway")
	}
	// Release: push to run queue from a fresh process.
	held := ic.held[0]
	e.Spawn("release", func(p *sim.Proc) { held.pe.PushRun(p, held.t) })
	e.RunAll()
	if arr.Elem(0).Obj.(*counterChare).runs != 1 {
		t.Fatal("released task did not run")
	}
	if ic.postCalls != 1 {
		t.Fatalf("postCalls = %d, want 1 (post-processing after prefetch entry)", ic.postCalls)
	}
	// Run-queue delivery must not re-intercept.
	if ic.intercepted != 1 {
		t.Fatalf("task re-intercepted from run queue")
	}
}

func TestInterceptorDecline(t *testing.T) {
	e, rt := testRT(t, 1)
	ic := &fakeInterceptor{admit: true}
	rt.SetInterceptor(ic)
	arr := rt.NewArray("c", 1, func(i int) Chare { return &counterChare{} }, nil)
	kern := arr.Register(Entry{
		Name:     "kern",
		Prefetch: true,
		Deps:     func(el *Element, msg *Message) []DataDep { return nil },
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			el.Obj.(*counterChare).runs++
		},
	})
	rt.Main(func(p *sim.Proc) { arr.Send(-1, 0, kern, nil) })
	e.RunAll()
	if arr.Elem(0).Obj.(*counterChare).runs != 1 {
		t.Fatal("declined task should execute inline")
	}
	if ic.postCalls != 1 {
		t.Fatal("post-processing skipped for inline prefetch task")
	}
}

func TestNonPrefetchNotIntercepted(t *testing.T) {
	e, rt := testRT(t, 1)
	ic := &fakeInterceptor{}
	rt.SetInterceptor(ic)
	arr := rt.NewArray("c", 1, func(i int) Chare { return nil }, nil)
	plain := arr.Register(Entry{
		Name: "plain",
		Fn:   func(p *sim.Proc, pe *PE, el *Element, msg *Message) {},
	})
	rt.Main(func(p *sim.Proc) { arr.Send(-1, 0, plain, nil) })
	e.RunAll()
	if ic.intercepted != 0 {
		t.Fatal("plain entry was intercepted")
	}
	if ic.postCalls != 0 {
		t.Fatal("plain entry got post-processing")
	}
}

func TestRunQueuePriority(t *testing.T) {
	// A task pushed to the run queue runs before queued messages.
	e, rt := testRT(t, 1)
	var order []string
	arr := rt.NewArray("c", 2, func(i int) Chare { return nil }, MapBlock(2, 1))
	note := arr.Register(Entry{
		Name: "note",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			order = append(order, msg.Data.(string))
			p.Sleep(0.1)
		},
	})
	rt.Main(func(p *sim.Proc) {
		// Fill the message queue while PE is busy with the first.
		arr.Send(-1, 0, note, "m1")
		arr.Send(-1, 0, note, "m2")
		arr.Send(-1, 1, note, "m3")
		p.Sleep(0.05) // m1 is executing; m2, m3 queued
		rt.PE(0).PushRun(p, &Task{
			Elem:  arr.Elem(1),
			Entry: note,
			Msg:   &Message{Data: "ready", From: -1, SentAt: p.Now()},
		})
	})
	e.RunAll()
	if len(order) != 4 || order[0] != "m1" || order[1] != "ready" {
		t.Fatalf("order = %v, want ready to preempt queued messages", order)
	}
}

func TestReductionBarrier(t *testing.T) {
	e, rt := testRT(t, 2)
	arr := rt.NewArray("c", 4, func(i int) Chare { return nil }, nil)
	iterations := 0
	var work *Entry
	red := rt.NewReduction(4, func() {
		iterations++
		if iterations < 3 {
			arr.Broadcast(-1, work, nil)
		}
	})
	work = arr.Register(Entry{
		Name: "work",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			p.Sleep(0.01)
			red.Contribute()
		},
	})
	rt.Main(func(p *sim.Proc) { arr.Broadcast(-1, work, nil) })
	e.RunAll()
	if iterations != 3 {
		t.Fatalf("iterations = %d, want 3 (reusable barrier)", iterations)
	}
}

func TestReductionOverContributePanics(t *testing.T) {
	_, rt := testRT(t, 1)
	red := rt.NewReduction(1, func() {})
	red.Contribute()
	// Counter reset after firing; two more are fine, a third in the
	// same epoch is fine too (reusable). Over-contribution within an
	// epoch is n+1 contributions before callback fires, which cannot
	// happen through the public API without app bugs; simulate one:
	red.arrived = red.expect
	defer func() {
		if recover() == nil {
			t.Fatal("over-contribution did not panic")
		}
	}()
	red.Contribute()
	red.Contribute()
}

func TestNodegroup(t *testing.T) {
	_, rt := testRT(t, 1)
	type cache struct{ hits int }
	rt.RegisterGroup("blockCache", &cache{})
	g := rt.Group("blockCache").(*cache)
	g.hits++
	if rt.Group("blockCache").(*cache).hits != 1 {
		t.Fatal("nodegroup not shared")
	}
}

func TestNodegroupDuplicatePanics(t *testing.T) {
	_, rt := testRT(t, 1)
	rt.RegisterGroup("g", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate nodegroup did not panic")
		}
	}()
	rt.RegisterGroup("g", 2)
}

func TestIdleTraced(t *testing.T) {
	e, rt := testRT(t, 1)
	spans := &spanSums{eng: e, sums: map[EventKind]sim.Time{}}
	rt.Attach(spans)
	arr := rt.NewArray("c", 1, func(i int) Chare { return nil }, nil)
	work := arr.Register(Entry{
		Name: "w",
		Fn:   func(p *sim.Proc, pe *PE, el *Element, msg *Message) { p.Sleep(1) },
	})
	rt.Main(func(p *sim.Proc) {
		p.Sleep(2) // PE idles for 2s first
		arr.Send(-1, 0, work, nil)
	})
	e.RunAll()
	if idle := spans.sums[EvIdle]; idle < 1.9 {
		t.Fatalf("idle time %v, want ~2s", idle)
	}
	if run := spans.sums[EvRunEnd]; run < 0.99 {
		t.Fatalf("compute time %v, want ~1s", run)
	}
}

func TestAccessModeStrings(t *testing.T) {
	if ReadOnly.String() != "readonly" || ReadWrite.String() != "readwrite" || WriteOnly.String() != "writeonly" {
		t.Fatal("access mode names")
	}
	if AccessMode(9).String() != "AccessMode(9)" {
		t.Fatal("unknown access mode")
	}
}

func TestConstructionPanics(t *testing.T) {
	e, rt := testRT(t, 2)
	_ = e
	cases := []func(){
		func() { rt.NewArray("", 0, func(i int) Chare { return nil }, nil) },
		func() {
			rt.NewArray("dup", 1, func(i int) Chare { return nil }, nil)
			rt.NewArray("dup", 1, func(i int) Chare { return nil }, nil)
		},
		func() {
			rt.NewArray("badmap", 1, func(i int) Chare { return nil }, func(i int) int { return 99 })
		},
		func() {
			a := rt.NewArray("ents", 1, func(i int) Chare { return nil }, nil)
			a.Register(Entry{Name: ""})
		},
		func() {
			a := rt.NewArray("ents2", 1, func(i int) Chare { return nil }, nil)
			a.Register(Entry{Name: "p", Prefetch: true, Fn: func(*sim.Proc, *PE, *Element, *Message) {}})
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestTaskString(t *testing.T) {
	_, rt := testRT(t, 1)
	arr := rt.NewArray("stencil", 2, func(i int) Chare { return nil }, nil)
	ent := arr.Register(Entry{Name: "kern", Fn: func(*sim.Proc, *PE, *Element, *Message) {}})
	task := &Task{Elem: arr.Elem(1), Entry: ent}
	if got := task.String(); got != "stencil[1].kern" {
		t.Fatalf("Task.String() = %q", got)
	}
}

func TestManyMessagesStress(t *testing.T) {
	e, rt := testRT(t, 8)
	arr := rt.NewArray("c", 64, func(i int) Chare { return &counterChare{} }, nil)
	work := arr.Register(Entry{
		Name: "w",
		Fn: func(p *sim.Proc, pe *PE, el *Element, msg *Message) {
			el.Obj.(*counterChare).runs++
			p.Sleep(0.001)
		},
	})
	rt.Main(func(p *sim.Proc) {
		for round := 0; round < 10; round++ {
			arr.Broadcast(-1, work, round)
		}
	})
	e.RunAll()
	for i := 0; i < 64; i++ {
		if got := arr.Elem(i).Obj.(*counterChare).runs; got != 10 {
			t.Fatalf("element %d ran %d times, want 10", i, got)
		}
	}
	if rt.Stats.MessagesDelivered != 640 {
		t.Fatalf("delivered %d, want 640", rt.Stats.MessagesDelivered)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	e, rt := testRT(t, 2)
	if rt.Engine() != e {
		t.Fatal("Engine()")
	}
	if rt.Machine() == nil || rt.Machine().Spec.Cores != 68 {
		t.Fatal("Machine()")
	}
	if rt.Observed() {
		t.Fatal("Observed() with no sink attached")
	}
	if rt.Params().SchedOverhead != DefaultParams().SchedOverhead {
		t.Fatal("Params()")
	}
	arr := rt.NewArray("acc", 2, func(i int) Chare { return nil }, nil)
	if arr.Name() != "acc" || arr.Len() != 2 {
		t.Fatal("array accessors")
	}
	if arr.Elem(0).Array() != arr {
		t.Fatal("Element.Array()")
	}
	ent := arr.Register(Entry{Name: "e", Fn: func(*sim.Proc, *PE, *Element, *Message) {}})
	if arr.Entry("e") != ent {
		t.Fatal("Entry lookup")
	}
	pe := rt.PE(0)
	if pe.Runtime() != rt || pe.ID() != 0 {
		t.Fatal("PE accessors")
	}
	if m, r := pe.QueueLengths(); m != 0 || r != 0 {
		t.Fatal("queue lengths")
	}
}

func TestElemOutOfRangePanics(t *testing.T) {
	_, rt := testRT(t, 1)
	arr := rt.NewArray("c", 1, func(i int) Chare { return nil }, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Elem did not panic")
		}
	}()
	arr.Elem(5)
}

func TestUnknownEntryPanics(t *testing.T) {
	_, rt := testRT(t, 1)
	arr := rt.NewArray("c", 1, func(i int) Chare { return nil }, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown entry did not panic")
		}
	}()
	arr.Entry("missing")
}

func TestUnknownGroupPanics(t *testing.T) {
	_, rt := testRT(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown group did not panic")
		}
	}()
	rt.Group("missing")
}

func TestMessageLatencyObserved(t *testing.T) {
	e, rt := testRT(t, 1)
	arr := rt.NewArray("c", 1, func(i int) Chare { return nil }, nil)
	var deliveredAt sim.Time
	ent := arr.Register(Entry{
		Name: "w",
		Fn:   func(p *sim.Proc, pe *PE, el *Element, msg *Message) { deliveredAt = msg.SentAt },
	})
	rt.Main(func(p *sim.Proc) {
		p.Sleep(1)
		arr.Send(-1, 0, ent, nil)
	})
	e.RunAll()
	if deliveredAt != 1 {
		t.Fatalf("SentAt = %v, want 1", deliveredAt)
	}
}

func TestSchedOverheadAccumulates(t *testing.T) {
	e := sim.NewEngine(1)
	m := topology.KNL7250().MustBuild(e)
	params := Params{SchedOverhead: 0.5} // gigantic, to dominate
	rt := NewRuntime(m, 1, params)
	defer e.Close()
	arr := rt.NewArray("c", 1, func(i int) Chare { return nil }, nil)
	ent := arr.Register(Entry{Name: "w", Fn: func(*sim.Proc, *PE, *Element, *Message) {}})
	rt.Main(func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			arr.Send(-1, 0, ent, nil)
		}
	})
	end := e.RunAll()
	if end < 2.0 {
		t.Fatalf("4 dispatches at 0.5s overhead each ended at %v, want >= 2", end)
	}
}
