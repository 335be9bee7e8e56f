// Package runner builds and runs one simulation. A Run value holds a
// run's inputs, and Build is the only code that assembles one: the
// environment, then the trace recorder, the application and the online
// controller. Three drivers run what it builds: Execute to completion
// (the experiments, `hmrepro run`), Replay and Judge to an abandon
// bound (what-if, the offline tuner), and hetmemd in windows.
package runner

import (
	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
)

// Run is one single-environment simulation, described by value, so two
// runs with equal inputs are the same run. Only a replay, whose App is
// a reconstructed capture, holds a pointer.
type Run struct {
	// EnvConfig is the environment: machine, PEs, options (victim
	// policy and audit flag included), runtime params and engine seed
	// (zero keeps NewEnv's defaults) and the Projections tracer.
	kernels.EnvConfig
	App   Workload // the application's config, which builds it
	Adapt Adapt    // the online adaptive controller, if Adapt.On
	// Record attaches a trace recorder, whose capture's meta event
	// carries the Session and Tenant labels (hetmemd's).
	Record          bool
	Session, Tenant string
}

// Workload builds a run's application on the run's manager: any
// kernels.Workload config, or a capture reconstructed for replay
// (trace.Workload).
type Workload interface {
	Build(mg *core.Manager) (kernels.App, error)
}

// Adapt configures a run's online controller as adapt.Config does, with
// the warm-start verdict held by value. A zero Warm starts the
// controller cold.
type Adapt struct {
	On   bool
	Warm core.Options
}

// Built is a run's environment with what Build attached to it.
type Built struct {
	*kernels.Env
	Rec *trace.Recorder // nil unless Run.Record
	App kernels.App     // nil if it failed to build
	Ctl *adapt.Controller
}

// Build makes the run's environment, recorder, application and
// controller, in that order. Options that fail Validate build nothing:
// Build returns their error and a nil Built. Otherwise it returns the
// environment, which the caller closes, and the error reports an
// application or controller that could not be built.
func (r Run) Build() (*Built, error) {
	if err := r.Opts.Validate(); err != nil {
		return nil, err
	}
	b := &Built{Env: kernels.NewEnv(r.EnvConfig)}
	if r.Record {
		b.Rec = trace.NewSessionRecorder(b.MG, r.Session, r.Tenant)
		b.Rec.Attach()
	}
	var err error
	if b.App, err = r.App.Build(b.MG); err != nil || !r.Adapt.On {
		return b, err
	}
	var cfg adapt.Config
	if r.Adapt.Warm != (core.Options{}) {
		cfg.Warm = &r.Adapt.Warm
	}
	b.Ctl, err = adapt.New(b.MG, b.App, cfg)
	return b, err
}

// Outcome is what executing a run yields. It holds nothing of the run's
// environment, and whoever reads it must not modify it: a sweep hands
// one outcome to every experiment that makes the run.
type Outcome struct {
	Time       sim.Time   // the app's makespan, as its Run returned it
	IterEnd    []sim.Time // each stencil or shift iteration's end
	AvgIter    sim.Time   // the stencil's mean iteration time
	PostShift  sim.Time   // the shift program's post-shift time
	Migrations int        // chares the stencil's load balancer moved
	End        sim.Time   // the engine's clock when the run finished
	Stats      core.Stats
	Chain      []string        // the memory nodes' names, near to far
	Audit      *audit.Snapshot // nil unless Opts.Audit
	// The views the run attached, each nil if it attached none.
	Tracer  *projections.Tracer
	Verdict *adapt.Verdict
	Capture *trace.Capture
}

// Execute builds the run, runs its application to completion and closes
// the environment. A controller run must end audit-clean: its auditor,
// when on, is checked at quiescence.
func (r Run) Execute() (*Outcome, error) {
	b, err := r.Build()
	if b == nil {
		return nil, err
	}
	o := &Outcome{Tracer: b.Tracer}
	if err == nil {
		o.Time, err = b.App.Run()
	}
	if err == nil && b.Ctl != nil {
		b.MG.Auditor().CheckQuiescent()
		err = b.MG.Auditor().Err()
	}
	b.Close()
	if err != nil {
		return nil, err
	}
	switch a := b.App.(type) {
	case *kernels.StencilApp:
		o.IterEnd, o.AvgIter, o.Migrations = a.IterEnd, a.AvgIterTime(), a.Migrations
	case *kernels.ShiftApp:
		o.IterEnd, o.PostShift = a.IterEnd, a.PostShiftTime()
	}
	o.End, o.Stats = b.Eng.Now(), b.MG.Stats
	for _, n := range b.Mach.Chain() {
		o.Chain = append(o.Chain, n.Name)
	}
	if snap, ok := b.MG.AuditSnapshot(); ok {
		o.Audit = &snap
	}
	if b.Ctl != nil {
		v := b.Ctl.Verdict()
		o.Verdict = &v
	}
	if b.Rec != nil {
		o.Capture = b.Rec.Capture()
	}
	return o, nil
}
