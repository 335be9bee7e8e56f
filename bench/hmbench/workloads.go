package main

import (
	"fmt"
	"time"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// defaultSeed is X13's arrival seed; only serve-mix reads the seed.
const defaultSeed = 42

// row is one deterministic (virtual-time) output of a pass: a figure
// cell, a load point or the tune verdict. Every pass must reproduce the
// warm-up pass's rows exactly, and on golden inputs they must equal the
// committed golden values.
type row struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"values"`
	Note   string             `json:"note,omitempty"`
	// runs is how many attempted runs the row stands for, so a golden
	// mismatch counts against error_rate with the right weight.
	runs int
}

// passResult is what one execution of a workload reports.
type passResult struct {
	rows      []row
	counts    map[string]float64 // deterministic per-layer counts
	rates     map[string]float64 // per-layer host-time rates
	setupS    float64            // host seconds spent setting up
	units     float64            // tasks, sessions or replays produced
	unitS     float64            // host seconds the units took; 0 means the whole pass
	virtualS  float64            // simulated seconds of the pass's results
	windowsMs []float64          // serve-mix: wall time of each Server.Step
	submitMs  []float64          // serve-mix: wall time of each POST /v1/sessions
	statsMs   []float64          // serve-mix: wall time of each GET /v1/stats
	attempted int
	failed    int
	problems  []string
}

func (r *passResult) fail(runs int, format string, args ...any) {
	r.failed += runs
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// passFunc runs one pass, recording spans under parent when sp is on.
type passFunc func(sp *spans, parent int) passResult

// instance is an opened workload: its pass and, optionally, a probe that
// measures per-layer rates outside the timed passes.
type instance struct {
	pass  passFunc
	probe func() map[string]float64
}

// workload is one benchmark input set.
type workload struct {
	name string
	// scale is the paper scale the benchmark runs the workload at; the
	// equivalence test opens every workload at exp.Small instead.
	scale exp.Scale
	// seeded marks workloads whose inputs depend on -seed. The others
	// run the paper's fixed inputs, so their golden rows apply to every
	// seed.
	seeded bool
	open   func(s exp.Scale, seed int64) (instance, error)
}

// workloads follow the access-pattern axis that decides hybrid-memory
// behaviour (fig8's read-write streaming sweeps against fig9's
// compute-heavy block reuse) and add the two paths only this repository
// has, the service and the tuner. Each stresses a layer the others
// barely reach; bench/README.md maps layers to workloads.
var workloads = []*workload{
	{
		name:  "fig8-stencil",
		scale: exp.Full,
		open:  func(s exp.Scale, _ int64) (instance, error) { return instance{pass: fig8(s).pass}, nil },
	},
	{
		name:  "fig9-matmul",
		scale: exp.Full,
		open:  func(s exp.Scale, _ int64) (instance, error) { return instance{pass: fig9(s).pass}, nil },
	},
	{
		name:   "serve-mix",
		scale:  exp.Full,
		seeded: true,
		open:   openServeMix,
	},
	tuneShift,
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// ---- fig8-stencil and fig9-matmul ----

// figure is one paper figure's sweep, built exactly as exp.RunFig8 and
// exp.RunFig9 build theirs.
type figure struct {
	s     exp.Scale
	sizes []int64
	modes []core.Mode
	build func(env *kernels.Env, size int64) (interface{ Run() (sim.Time, error) }, error)
}

func fig8(s exp.Scale) figure {
	return figure{
		s:     s,
		sizes: s.StencilReducedSizes(),
		modes: append([]core.Mode{core.Baseline}, exp.StrategyModes()...),
		build: func(env *kernels.Env, red int64) (interface{ Run() (sim.Time, error) }, error) {
			return kernels.NewStencil(env.MG, s.StencilConfig(red))
		},
	}
}

func fig9(s exp.Scale) figure {
	return figure{
		s:     s,
		sizes: s.MatMulTotalSizes(),
		modes: append([]core.Mode{core.DDROnly, core.Baseline}, exp.StrategyModes()...),
		build: func(env *kernels.Env, total int64) (interface{ Run() (sim.Time, error) }, error) {
			return kernels.NewMatMul(env.MG, s.MatMulConfig(total))
		},
	}
}

// newEnv builds a run environment the way the exp drivers do.
func newEnv(s exp.Scale, opts core.Options) *kernels.Env {
	return kernels.NewEnv(kernels.EnvConfig{
		Spec:   s.Machine(),
		NumPEs: s.NumPEs(),
		Opts:   opts,
		Params: charm.DefaultParams(),
	})
}

// paperOptions are exp's paper-faithful options for a mode.
func paperOptions(s exp.Scale, mode core.Mode) core.Options {
	o := core.DefaultOptions(mode)
	o.HBMReserve = s.HBMReserve()
	return o
}

// envCounts adds one finished run's layer counters to counts, plus the
// fetch lane-seconds and simulated seconds core.fetch_occupancy is
// derived from.
func envCounts(counts map[string]float64, env *kernels.Env) {
	counts["sim.events"] += float64(env.Eng.EventStats().Fired)
	counts["charm.tasks"] += float64(env.RT.Stats.TasksExecuted)
	st := &env.MG.Stats
	counts["core.fetches"] += float64(st.Fetches)
	counts["core.evictions"] += float64(st.Evictions)
	counts["core.refetches"] += float64(st.Refetches)
	counts["core.forced_evictions"] += float64(st.ForcedEvictions)
	counts["core.stage_retries"] += float64(st.StageRetries)
	counts["core.fetch_busy_s"] += st.FetchTime
	counts["sim.virtual_s"] += env.Eng.Now()
	for _, n := range env.Mach.Mem.Nodes() {
		counts["memsim.gb_streamed"] += (n.BytesRead + n.BytesWritten) / float64(exp.GB)
	}
}

func (f figure) pass(sp *spans, parent int) passResult {
	res := passResult{counts: map[string]float64{}}
	for _, size := range f.sizes {
		for _, mode := range f.modes {
			label := fmt.Sprintf("%s %v", gbLabel(size), mode)
			res.attempted++
			run := sp.begin("run "+label, parent)
			t0 := time.Now()
			setup := sp.begin("setup", run)
			env := newEnv(f.s, paperOptions(f.s, mode))
			app, err := f.build(env, size)
			sp.end(setup)
			res.setupS += time.Since(t0).Seconds()
			if err != nil {
				env.Close()
				sp.end(run)
				res.fail(1, "%s: build: %v", label, err)
				continue
			}
			makespan, err := app.Run()
			if err == nil {
				envCounts(res.counts, env)
				res.units += float64(env.RT.Stats.TasksExecuted)
				res.virtualS += makespan
				res.rows = append(res.rows, row{
					Label:  label,
					Values: map[string]float64{"makespan_s": makespan, "fetches": float64(env.MG.Stats.Fetches)},
					runs:   1,
				})
			}
			env.Close()
			sp.end(run)
			if err != nil {
				res.fail(1, "%s: %v", label, err)
			}
		}
	}
	return res
}

func gbLabel(b int64) string { return fmt.Sprintf("%.3g GB", float64(b)/float64(exp.GB)) }
