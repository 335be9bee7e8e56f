package kernels

import (
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Env bundles one simulated experiment instance: engine, machine,
// runtime, OOC manager and (optionally) a Projections tracer attached to
// the runtime's event stream. Every experiment run
// uses a fresh Env so state never leaks between configurations.
type Env struct {
	Eng    *sim.Engine
	Mach   *topology.Machine
	RT     *charm.Runtime
	MG     *core.Manager
	Tracer *projections.Tracer
}

// EnvConfig parameterises NewEnv. Projections attaches a Projections
// tracer to the runtime's event stream.
type EnvConfig struct {
	Spec        topology.MachineSpec
	NumPEs      int
	Opts        core.Options
	Params      charm.Params
	Projections bool
	Seed        int64
}

// NewEnv builds a ready environment. Zero Params fields fall back to
// charm.DefaultParams; Seed 0 uses a fixed default seed.
func NewEnv(cfg EnvConfig) *Env {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	params := cfg.Params
	if params == (charm.Params{}) {
		params = charm.DefaultParams()
	}
	e := sim.NewEngine(seed)
	mach := cfg.Spec.MustBuild(e)
	rt := charm.NewRuntime(mach, cfg.NumPEs, params)
	var tr *projections.Tracer
	if cfg.Projections {
		tr = projections.NewTracer(e, cfg.NumPEs)
		rt.Attach(tr)
	}
	mg := core.NewManager(rt, cfg.Opts)
	return &Env{Eng: e, Mach: mach, RT: rt, MG: mg, Tracer: tr}
}

// Close reaps all still-parked simulation processes and drops the
// manager's eviction-pass storage; the manager's counters stay
// readable.
func (v *Env) Close() {
	v.Eng.Close()
	v.MG.Close()
}
