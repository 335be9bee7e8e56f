package exp

import (
	"fmt"
	"sort"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
)

// X9 pits the online adaptive controller against a grid of fixed
// configurations over the Fig 8 stencil sweep and the Fig 9 MatMul
// sweep. The paper tunes its strategy choice, IO-thread count and
// prefetch depth offline per workload ("a more optimal number of IO
// threads", "when to prefetch"); the controller must find an equivalent
// operating point within a single run, from a deliberately weak
// starting configuration, with zero invariant violations.
//
// Metric: stencil runs report the steady-state iteration time (mean of
// the last x9SteadyIters per-iteration deltas — steady state is what an
// HPC run pays for hours, and it excludes neither strategy's cold
// start); MatMul has no iteration structure, so it reports total time,
// adaptation cost included.

// x9Iterations gives the stencil controller room to adapt and then a
// measured steady tail; fixed configurations run the same length so the
// steady windows are directly comparable.
const x9Iterations = 12

// x9SteadyIters is the steady-tail length averaged into the metric.
const x9SteadyIters = 3

// x9Fixed is one fixed configuration in the comparison grid.
type x9Fixed struct {
	name      string
	mode      core.Mode
	ioThreads int
	depth     int
	lazy      bool
}

// x9Grid spans the knob space the controller searches: both SingleIO
// pool sizes, NoIO, and MultiIO across depth and eviction policy.
func x9Grid() []x9Fixed {
	return []x9Fixed{
		{name: "single io1", mode: core.SingleIO},
		{name: "single io4", mode: core.SingleIO, ioThreads: 4},
		{name: "no-io", mode: core.NoIO},
		{name: "multi d1", mode: core.MultiIO, depth: 1},
		{name: "multi d0 eager", mode: core.MultiIO},
		{name: "multi d0 lazy", mode: core.MultiIO, lazy: true},
	}
}

// options builds the manager options for a fixed grid entry.
func (f x9Fixed) options(s Scale) core.Options {
	o := s.options(f.mode)
	o.IOThreads = f.ioThreads
	o.PrefetchDepth = f.depth
	o.EvictLazily = f.lazy
	return o
}

// X9Point is one size point of one application sweep.
type X9Point struct {
	App  string // "stencil" or "matmul"
	Size int64

	Fixed    map[string]float64 // steady metric per fixed config
	Adaptive float64

	Best, Worst       string // best/worst fixed config names
	BestVal, WorstVal float64

	Final           core.Options // where the controller landed
	ConvergedWindow int
	Trace           []adapt.Decision
}

// VsBest returns adaptive/best-fixed (1.0 = matched the offline
// optimum; the acceptance bar is <= 1.05).
func (p X9Point) VsBest() float64 { return p.Adaptive / p.BestVal }

// VsWorst returns worst-fixed/adaptive (how badly an unlucky static
// choice would have lost; the bar is >= 1.3 on at least one point).
func (p X9Point) VsWorst() float64 { return p.WorstVal / p.Adaptive }

// X9Result is the adaptive-vs-fixed comparison over both sweeps.
type X9Result struct {
	Scale  Scale
	Points []X9Point
}

// RunX9 runs the full comparison at the given scale.
func RunX9(s Scale) (*X9Result, error) {
	res := &X9Result{Scale: s}
	for _, red := range s.StencilReducedSizes() {
		p, err := runX9Stencil(s, red)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	for _, total := range s.MatMulTotalSizes() {
		p, err := runX9MatMul(s, total)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// stencilSteady returns the mean of the last x9SteadyIters iteration
// deltas.
func stencilSteady(app *kernels.StencilApp) float64 {
	n := len(app.IterEnd)
	k := x9SteadyIters
	if n < k+1 {
		k = n - 1
	}
	if k < 1 {
		return float64(app.TotalTime())
	}
	return float64(app.IterEnd[n-1]-app.IterEnd[n-1-k]) / float64(k)
}

// adaptiveEnv builds the environment for an adaptive run: metrics and
// the full invariant auditor are always on — the acceptance bar
// requires every adaptive run to be audit-clean, not just the ones
// under -audit.
func adaptiveEnv(s Scale, opts core.Options) *kernels.Env {
	opts.Audit = true
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   s.Machine(),
		NumPEs: s.NumPEs(),
		Opts:   opts,
	})
	registerAudit(env)
	return env
}

// finishAdaptive audit-checks an adaptive run and fills the
// controller-side fields of the point.
func finishAdaptive(p *X9Point, env *kernels.Env, ctl *adapt.Controller, metric float64) error {
	env.MG.Auditor().CheckQuiescent()
	if err := env.MG.Auditor().Err(); err != nil {
		return fmt.Errorf("exp: x9 adaptive %s at %s: %w", p.App, gbs(p.Size), err)
	}
	p.Adaptive = metric
	p.Final = ctl.FinalOptions()
	p.ConvergedWindow = ctl.ConvergedWindow()
	p.Trace = ctl.Trace()
	return nil
}

// rank fills Best/Worst from the fixed grid results. Iterating the
// names in sorted order makes the lexicographic tie-break implicit: the
// first name seen at a given value wins.
func (p *X9Point) rank() {
	names := make([]string, 0, len(p.Fixed))
	for name := range p.Fixed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := p.Fixed[name]
		if p.Best == "" || v < p.BestVal {
			p.Best, p.BestVal = name, v
		}
		if p.Worst == "" || v > p.WorstVal {
			p.Worst, p.WorstVal = name, v
		}
	}
}

func runX9Stencil(s Scale, red int64) (X9Point, error) {
	p := X9Point{App: "stencil", Size: red, Fixed: make(map[string]float64)}
	cfg := s.StencilConfig(red)
	cfg.Iterations = x9Iterations

	for _, f := range x9Grid() {
		env := s.newEnv(f.options(s), false)
		app, err := kernels.NewStencil(env.MG, cfg)
		if err != nil {
			env.Close()
			return p, err
		}
		_, err = app.Run()
		steady := stencilSteady(app)
		env.Close()
		if err != nil {
			return p, fmt.Errorf("exp: x9 stencil %s at %s: %w", f.name, gbs(red), err)
		}
		p.Fixed[f.name] = steady
	}
	p.rank()

	// Adaptive run, from the weakest movement configuration the paper
	// evaluates: one IO thread serving every PE, eager eviction.
	env := adaptiveEnv(s, s.options(core.SingleIO))
	defer env.Close()
	app, err := kernels.NewStencil(env.MG, cfg)
	if err != nil {
		return p, err
	}
	ctl, err := adapt.New(env.MG, adapt.Config{})
	if err != nil {
		return p, err
	}
	ctl.Attach()
	app.OnIteration = func(_ int, resume func()) {
		ctl.Barrier()
		resume()
	}
	if _, err := app.Run(); err != nil {
		return p, fmt.Errorf("exp: x9 adaptive stencil at %s: %w", gbs(red), err)
	}
	return p, finishAdaptive(&p, env, ctl, stencilSteady(app))
}

func runX9MatMul(s Scale, total int64) (X9Point, error) {
	p := X9Point{App: "matmul", Size: total, Fixed: make(map[string]float64)}
	cfg := s.MatMulConfig(total)

	for _, f := range x9Grid() {
		env := s.newEnv(f.options(s), false)
		app, err := kernels.NewMatMul(env.MG, cfg)
		if err != nil {
			env.Close()
			return p, err
		}
		t, err := app.Run()
		env.Close()
		if err != nil {
			return p, fmt.Errorf("exp: x9 matmul %s at %s: %w", f.name, gbs(total), err)
		}
		p.Fixed[f.name] = float64(t)
	}
	p.rank()

	// Adaptive run: MatMul has no barriers, so the controller samples
	// completion windows; strategy switching needs quiescence, so it
	// starts on the movement strategy Fig 9 already favours and tunes
	// depth and eviction within it.
	env := adaptiveEnv(s, s.options(core.MultiIO))
	defer env.Close()
	app, err := kernels.NewMatMul(env.MG, cfg)
	if err != nil {
		return p, err
	}
	// One task per PE and window: small enough that the climb finishes
	// in the first tenth of the run (adaptation cost lands in the
	// total-time metric), and still stable — MatMul's tasks are
	// uniform, so even a one-task-per-PE window scores cleanly.
	ctl, err := adapt.New(env.MG, adapt.Config{SampleEvery: s.NumPEs()})
	if err != nil {
		return p, err
	}
	ctl.Attach()
	t, err := app.Run()
	if err != nil {
		return p, fmt.Errorf("exp: x9 adaptive matmul at %s: %w", gbs(total), err)
	}
	return p, finishAdaptive(&p, env, ctl, float64(t))
}

// describeOptions summarises where the controller landed.
func describeOptions(o core.Options) string {
	s := "single"
	switch o.Mode {
	case core.MultiIO:
		s = "multi"
	case core.NoIO:
		s = "no-io"
	}
	if o.Mode == core.SingleIO {
		io := o.IOThreads
		if io <= 0 {
			io = 1
		}
		s = fmt.Sprintf("%s io%d", s, io)
	}
	if o.Mode == core.MultiIO {
		s = fmt.Sprintf("%s d%d", s, o.PrefetchDepth)
	}
	if o.EvictLazily {
		s += " lazy"
	} else if o.Mode.Moves() {
		s += " eager"
	}
	return s
}

// Table renders both sweeps with per-point convergence traces in the
// notes.
func (r *X9Result) Table() Table {
	t := Table{
		Title: "X9: online adaptive controller vs fixed configurations",
		Header: []string{"app", "size", "adaptive (s)", "best fixed", "vs best",
			"worst fixed", "vs worst", "landed on", "settled"},
		Notes: []string{
			"stencil metric: steady-state s/iteration (mean of last " +
				fmt.Sprintf("%d", x9SteadyIters) + "); matmul metric: total s",
			"adaptive stencil starts at 'single io1', matmul at 'multi d0 eager'",
			"vs best = adaptive/best (1.00 matches the offline optimum); " +
				"vs worst = worst/adaptive",
		},
	}
	for _, p := range r.Points {
		settled := "no"
		if p.ConvergedWindow >= 0 {
			settled = fmt.Sprintf("w%d", p.ConvergedWindow)
		}
		t.Rows = append(t.Rows, []string{
			p.App,
			gbs(p.Size),
			f3(p.Adaptive),
			fmt.Sprintf("%s (%s)", p.Best, f3(p.BestVal)),
			f2(p.VsBest()),
			fmt.Sprintf("%s (%s)", p.Worst, f3(p.WorstVal)),
			f2(p.VsWorst()),
			describeOptions(p.Final),
			settled,
		})
	}
	for _, p := range r.Points {
		t.Notes = append(t.Notes, fmt.Sprintf("%s %s trace:", p.App, gbs(p.Size)))
		for _, d := range p.Trace {
			t.Notes = append(t.Notes, "  "+d.String())
		}
	}
	return t
}

// X9BenchPoint is the JSON snapshot of one point for BENCH_adapt.json.
type X9BenchPoint struct {
	App             string             `json:"app"`
	SizeBytes       int64              `json:"size_bytes"`
	Adaptive        float64            `json:"adaptive_s"`
	Best            string             `json:"best_fixed"`
	BestVal         float64            `json:"best_fixed_s"`
	Worst           string             `json:"worst_fixed"`
	WorstVal        float64            `json:"worst_fixed_s"`
	VsBest          float64            `json:"adaptive_vs_best"`
	VsWorst         float64            `json:"worst_vs_adaptive"`
	Landed          string             `json:"landed_on"`
	ConvergedWindow int                `json:"converged_window"`
	Fixed           map[string]float64 `json:"fixed_s"`
}

// X9Bench is the benchmark snapshot X9 writes (BENCH_adapt.json).
type X9Bench struct {
	Scale  string         `json:"scale"`
	Metric string         `json:"metric"`
	Points []X9BenchPoint `json:"points"`
}

// Bench converts the result for JSON emission.
func (r *X9Result) Bench() X9Bench {
	b := X9Bench{
		Scale:  r.Scale.String(),
		Metric: "stencil: steady s/iter; matmul: total s",
	}
	for _, p := range r.Points {
		bp := X9BenchPoint{
			App:             p.App,
			SizeBytes:       p.Size,
			Adaptive:        p.Adaptive,
			Best:            p.Best,
			BestVal:         p.BestVal,
			Worst:           p.Worst,
			WorstVal:        p.WorstVal,
			VsBest:          p.VsBest(),
			VsWorst:         p.VsWorst(),
			Landed:          describeOptions(p.Final),
			ConvergedWindow: p.ConvergedWindow,
			Fixed:           p.Fixed,
		}
		b.Points = append(b.Points, bp)
	}
	sort.SliceStable(b.Points, func(i, j int) bool {
		if b.Points[i].App != b.Points[j].App {
			return b.Points[i].App < b.Points[j].App
		}
		return b.Points[i].SizeBytes < b.Points[j].SizeBytes
	})
	return b
}
