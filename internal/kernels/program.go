package kernels

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// Workload is an application's configuration (StencilConfig,
// MatMulConfig or ShiftConfig). It validates itself, says how big its
// application is — the managed blocks it declares (Handles) and the
// largest dependence set one task declares (TaskDepBytes), the least
// HBM it can progress in — and builds it on a manager whose runtime has
// the configuration's PE count.
type Workload interface {
	Validate() error
	Handles() int
	TaskDepBytes() int64
	Build(mg *core.Manager) (App, error)
}

// App is a built application. Run drives it on a fresh engine; Start
// seeds it for callers that drive the engine themselves, and Done and
// FinishedAt report its completion.
type App interface {
	Start()
	Run() (sim.Time, error)
	Done() bool
	FinishedAt() sim.Time
}

// build returns a constructor's result as an App, nil on error.
func build[A App](app A, err error) (App, error) {
	if err != nil {
		return nil, err
	}
	return app, nil
}

// program is the run bookkeeping every application shares.
type program struct {
	mg  *core.Manager
	eng *sim.Engine
	// name, and progress when set, describe a stalled run in Run's
	// deadlock error.
	name     string
	progress func() string
	// seed sends the first wave of work, from the runtime's main.
	seed func()

	started, end sim.Time
	done         bool
}

func (p *program) init(mg *core.Manager, name string, seed func()) {
	p.mg, p.eng, p.name, p.seed = mg, mg.Runtime().Engine(), name, seed
}

// Start seeds the first wave of work without driving the engine, for
// callers that run the engine themselves (the cluster, the serve
// session scheduler).
func (p *program) Start() {
	p.started = p.eng.Now()
	p.mg.Runtime().Main(func(*sim.Proc) { p.seed() })
}

// Run seeds the program and drives the engine to completion, returning
// the program's wall time. It must be called on a fresh engine.
func (p *program) Run() (sim.Time, error) {
	p.Start()
	p.eng.RunAll()
	if !p.done {
		var at string
		if p.progress != nil {
			at = p.progress()
		}
		return 0, fmt.Errorf("kernels: %s deadlocked%s (blocked: %v)", p.name, at, p.eng.BlockedProcNames())
	}
	return p.end - p.started, nil
}

func (p *program) finish() { p.done, p.end = true, p.eng.Now() }

// Done reports whether the program completed.
func (p *program) Done() bool { return p.done }

// FinishedAt returns the engine-local completion time; valid once Done
// reports true.
func (p *program) FinishedAt() sim.Time { return p.end }

// Manager exposes the OOC manager (stats, tracer access).
func (p *program) Manager() *core.Manager { return p.mg }

// iterative is the bookkeeping of a program whose iterations end in a
// reduction (Stencil3D, the shift program). Its seed starts an
// iteration.
type iterative struct {
	program

	// IterEnd records the completion time of each iteration.
	IterEnd []sim.Time
	// OnIteration, when non-nil, is invoked at each iteration boundary
	// instead of immediately starting the next iteration; the
	// application continues when resume is called. The cluster layer
	// exchanges inter-node halos here.
	OnIteration func(iter int, resume func())

	iters int
	// barrier, when set, runs at each boundary but the last (AtBarrier).
	barrier func()
}

// AtBarrier runs fn at each iteration barrier but the last, before the
// next iteration starts or OnIteration is invoked: the quiescent points
// where an adaptive controller samples.
func (it *iterative) AtBarrier(fn func()) { it.barrier = fn }

func (it *iterative) init(mg *core.Manager, name string, iters int, seed func()) {
	it.program.init(mg, name, seed)
	it.iters = iters
	it.progress = func() string { return fmt.Sprintf(" after %d/%d iterations", len(it.IterEnd), it.iters) }
}

// endIteration is the reduction body: record the iteration, then run
// the barrier and call the hook or start the next iteration, or finish
// after the last.
func (it *iterative) endIteration() {
	it.IterEnd = append(it.IterEnd, it.eng.Now())
	if len(it.IterEnd) >= it.iters {
		it.finish()
		return
	}
	if it.barrier != nil {
		it.barrier()
	}
	if it.OnIteration != nil {
		it.OnIteration(len(it.IterEnd), it.seed)
	} else {
		it.seed()
	}
}
