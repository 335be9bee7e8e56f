package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// oocPlan is a random out-of-core workload: chare count, block sizes,
// iteration count, sharing pattern, strategy and eviction policy.
type oocPlan struct {
	mode     Mode
	lazy     bool
	numPEs   int
	chares   int
	blockMB  int
	iters    int
	sharedMB int // 0 = no shared read-only block
}

// Generate implements quick.Generator.
func (oocPlan) Generate(r *rand.Rand, size int) reflect.Value {
	modes := []Mode{SingleIO, NoIO, MultiIO}
	p := oocPlan{
		mode:    modes[r.Intn(len(modes))],
		lazy:    r.Intn(2) == 0,
		numPEs:  1 + r.Intn(4),
		chares:  1 + r.Intn(12),
		blockMB: 32 * (1 + r.Intn(8)), // 32..256 MB
		iters:   1 + r.Intn(3),
	}
	if r.Intn(2) == 0 {
		p.sharedMB = 64 * (1 + r.Intn(4))
	}
	return reflect.ValueOf(p)
}

// TestQuickOOCInvariants: for any random workload and strategy, the
// application terminates with every task executed, the HBM budget
// respected at its peak, all reference counts and claims at zero, no
// block stuck in a transitional state, and the reservation counter
// drained.
func TestQuickOOCInvariants(t *testing.T) {
	check := func(plan oocPlan) bool {
		e := sim.NewEngine(1234)
		mach := tinySpec().MustBuild(e)
		rt := charm.NewRuntime(mach, plan.numPEs, charm.DefaultParams())
		opts := DefaultOptions(plan.mode)
		opts.EvictLazily = plan.lazy
		opts.Audit = true
		mg := NewManager(rt, opts)
		defer e.Close()

		var shared []*Handle
		if plan.sharedMB > 0 {
			shared = append(shared, mg.NewHandle("shared", int64(plan.sharedMB)<<20))
		}
		env := &env{e: e, m: mach, rt: rt, mg: mg}
		app := buildApp(env, plan.chares, int64(plan.blockMB)<<20, plan.iters, shared)

		// A single task's dependences must fit the budget, or the
		// manager correctly panics; skip impossible plans.
		if int64(plan.blockMB+plan.sharedMB)<<20 > mg.HBMBudget() {
			return true
		}

		app.env.rt.Main(func(p *sim.Proc) { app.arr.Broadcast(-1, app.kern, nil) })
		e.RunAll()

		if !app.done {
			return false // deadlock
		}
		if rt.Stats.TasksExecuted != int64(plan.chares*plan.iters) {
			return false
		}
		for _, h := range mg.Handles() {
			if h.Refs() != 0 || h.claims != 0 || h.pendingUses != 0 {
				return false
			}
			if h.State() == Fetching || h.State() == Evicting {
				return false
			}
		}
		if mg.reserved != 0 {
			return false
		}
		if mach.HBM().PeakUsed > mach.HBM().Cap-opts.HBMReserve {
			return false
		}
		// Byte accounting is consistent.
		st := mg.Stats
		if st.BytesFetched < 0 || st.BytesEvicted > st.BytesFetched {
			return false
		}
		// The auditor ran through the whole workload and saw nothing.
		if !mg.Auditor().Ok() {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: any plan run twice produces identical end
// times and fetch counts.
func TestQuickDeterminism(t *testing.T) {
	run := func(plan oocPlan) (sim.Time, int64, bool) {
		e := sim.NewEngine(7)
		mach := tinySpec().MustBuild(e)
		rt := charm.NewRuntime(mach, plan.numPEs, charm.DefaultParams())
		opts := DefaultOptions(plan.mode)
		opts.EvictLazily = plan.lazy
		mg := NewManager(rt, opts)
		defer e.Close()
		if int64(plan.blockMB)<<20 > mg.HBMBudget() {
			return 0, 0, false
		}
		env := &env{e: e, m: mach, rt: rt, mg: mg}
		app := buildApp(env, plan.chares, int64(plan.blockMB)<<20, plan.iters, nil)
		app.env.rt.Main(func(p *sim.Proc) { app.arr.Broadcast(-1, app.kern, nil) })
		e.RunAll()
		return e.Now(), mg.Stats.Fetches, app.done
	}
	check := func(plan oocPlan) bool {
		t1, f1, ok1 := run(plan)
		t2, f2, ok2 := run(plan)
		return ok1 == ok2 && t1 == t2 && f1 == f2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
