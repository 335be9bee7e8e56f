package exp

import (
	"fmt"
	"slices"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
	"github.com/hetmem/hetmem/internal/trace"
)

// Run is one single-environment simulation, described by value, so two
// runs with equal inputs are the same run. It holds no pointer.
type Run struct {
	Spec   topology.MachineSpec
	NumPEs int
	Opts   core.Options // victim policy and audit flag included
	App    any          // a kernels.StencilConfig, MatMulConfig or ShiftConfig
	Adapt  Adapt        // the online adaptive controller, if Adapt.On
	// Projections attaches a Projections tracer, Record a trace
	// recorder.
	Projections, Record bool
}

// Adapt configures a run's online controller as adapt.Config does, with
// the warm-start verdict held by value. SampleEvery samples completion
// windows (MatMul); the stencil and shift programs are sampled at their
// iteration barriers. A zero Warm starts the controller cold.
type Adapt struct {
	On          bool
	SampleEvery int
	Warm        core.Options
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

// Execute builds the run's environment, recorder, application and
// controller, in that order, runs the application to completion and
// closes the environment. A controller run must end audit-clean: its
// auditor, when on, is checked at quiescence.
func (r Run) Execute() (*Outcome, error) {
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec: r.Spec, NumPEs: r.NumPEs, Opts: r.Opts, Params: charm.DefaultParams(), Trace: r.Projections,
	})
	var rec *trace.Recorder
	if r.Record {
		rec = trace.NewRecorder(env.MG)
		rec.Attach()
	}
	var (
		app interface{ Run() (sim.Time, error) }
		err error
	)
	switch cfg := r.App.(type) {
	case kernels.StencilConfig:
		app, err = kernels.NewStencil(env.MG, cfg)
	case kernels.MatMulConfig:
		app, err = kernels.NewMatMul(env.MG, cfg)
	case kernels.ShiftConfig:
		app, err = kernels.NewShift(env.MG, cfg)
	default:
		err = fmt.Errorf("exp: no application for %T", cfg)
	}
	var ctl *adapt.Controller
	if err == nil && r.Adapt.On {
		ctl, err = r.Adapt.attach(env.MG)
	}
	if ctl != nil {
		switch a := app.(type) { // the programs with iteration barriers
		case *kernels.StencilApp:
			a.OnIteration = ctl.Barrier
		case *kernels.ShiftApp:
			a.OnIteration = ctl.Barrier
		}
	}
	o := &Outcome{Tracer: env.Tracer}
	if err == nil {
		o.Time, err = app.Run()
	}
	if err == nil && ctl != nil {
		env.MG.Auditor().CheckQuiescent()
		err = env.MG.Auditor().Err()
	}
	env.Close()
	if err != nil {
		return nil, err
	}
	switch a := app.(type) {
	case *kernels.StencilApp:
		o.IterEnd, o.AvgIter, o.Migrations = a.IterEnd, a.AvgIterTime(), a.Migrations
	case *kernels.ShiftApp:
		o.IterEnd, o.PostShift = a.IterEnd, a.PostShiftTime()
	}
	o.End, o.Stats = env.Eng.Now(), env.MG.Stats
	for _, n := range env.Mach.Chain() {
		o.Chain = append(o.Chain, n.Name)
	}
	if snap, ok := env.MG.AuditSnapshot(); ok {
		o.Audit = &snap
	}
	if ctl != nil {
		v := ctl.Verdict()
		o.Verdict = &v
	}
	if rec != nil {
		o.Capture = rec.Capture()
	}
	return o, nil
}

// attach builds the controller a configures on mg and attaches it to the
// run's event stream.
func (a Adapt) attach(mg *core.Manager) (*adapt.Controller, error) {
	cfg := adapt.Config{SampleEvery: a.SampleEvery}
	if a.Warm != (core.Options{}) {
		cfg.Warm = &a.Warm
	}
	ctl, err := adapt.New(mg, cfg)
	if err != nil {
		return nil, err
	}
	ctl.Attach()
	return ctl, nil
}

// key renders r in Go syntax, which names every type and prints every
// float exactly, so two runs share a key exactly when their inputs are
// equal. A stencil whose Weight is a func (X7's) has no key.
func (r Run) key() (string, bool) {
	if c, ok := r.App.(kernels.StencilConfig); ok && c.Weight != nil {
		return "", false
	}
	if len(r.Spec.ExtraTiers) == 0 {
		r.Spec.ExtraTiers = nil // TieredMachine(2) is Machine()
	}
	return fmt.Sprintf("%#v", r), true
}

// Sweep is one pass over experiments at a scale: the -audit flag and the
// -evict-policy choice its runs take, the audit snapshots they collect
// (one per executed run and per X8 cluster node), and a memo that
// executes each distinct Run once. EvictPolicy, when non-nil, applies
// to the movement-mode runs built from the paper's options. A Sweep
// needs only its Scale set; it is not safe for concurrent use.
type Sweep struct {
	Scale       Scale
	Audit       bool
	EvictPolicy core.EvictPolicy

	memo     map[string]*Outcome
	audits   []audit.Snapshot
	executed int
}

// Audits returns a copy of the audit snapshots collected so far, in the
// order their runs executed.
func (sw *Sweep) Audits() []audit.Snapshot { return slices.Clone(sw.audits) }

// Options returns paper-faithful manager options for a mode at the
// sweep's scale, with its audit flag and victim policy. Placement-only
// modes never evict, so they take no policy (Validate rejects one).
func (sw *Sweep) Options(mode core.Mode) core.Options {
	o := core.DefaultOptions(mode)
	o.HBMReserve = sw.Scale.HBMReserve()
	o.Audit = sw.Audit
	if sw.EvictPolicy != nil && mode.Moves() {
		o.EvictPolicy = sw.EvictPolicy
	}
	return o
}

// run describes app under opts on the scale's machine.
func (sw *Sweep) run(opts core.Options, app any) Run {
	return Run{Spec: sw.Scale.Machine(), NumPEs: sw.Scale.NumPEs(), Opts: opts, App: app}
}

// adaptive describes app under opts with the online controller ctl. Its
// auditor is on under any sweep: every adaptive run must be audit-clean.
func (sw *Sweep) adaptive(opts core.Options, app any, ctl Adapt) Run {
	opts.Audit, ctl.On = true, true
	r := sw.run(opts, app)
	r.Adapt = ctl
	return r
}

// do returns r's outcome, executing r unless the sweep already has.
func (sw *Sweep) do(r Run) (*Outcome, error) {
	key, keyed := r.key()
	if o, ok := sw.memo[key]; keyed && ok {
		return o, nil
	}
	o, err := r.Execute()
	if err != nil {
		return nil, err
	}
	sw.executed++
	if sw.Audit && o.Audit != nil {
		sw.audits = append(sw.audits, *o.Audit)
	}
	if keyed {
		if sw.memo == nil {
			sw.memo = make(map[string]*Outcome)
		}
		sw.memo[key] = o
	}
	return o, nil
}
