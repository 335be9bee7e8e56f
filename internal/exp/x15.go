package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/trace"
	"github.com/hetmem/hetmem/internal/tune"
)

// X15 closes the offline/online tuning loop.
//
// Offline half: capture the X10 working-set-shift workload under the
// default (declaration-order) victim policy, run the trace-driven
// autotuner (internal/tune) over the capture — scoped to the captured
// movement strategy — and check that the search independently reaches
// the verdict X10 measures directly: the lookahead victim policy. The offline search never touches the live
// run; it replays the capture through the real scheduler, so agreement
// here is evidence the replay-driven objective ranks configurations
// like reality does.
//
// Online half: for every X9 point (both app sweeps), run the adaptive
// controller exactly as X9 does — cold — and then again warm-started
// from the cold run's settled verdict (adapt.Config.Warm, the same
// handshake hetmemd uses to seed a tenant's next session). The metric
// is time-to-settle in virtual time; the acceptance gate requires the
// warm start to settle strictly earlier on every point.

// X15Point is one X9 operating point's cold-vs-warm comparison.
type X15Point struct {
	App  string // "stencil" or "matmul"
	Size int64

	// Cold is where the cold climb converged and when it settled; Warm
	// the same for the run warm-started from Cold's verdict.
	Cold, Warm adapt.Verdict
}

// Speedup returns cold/warm time-to-settle (>1 = warm start pays off);
// 0 when either run failed to settle.
func (p X15Point) Speedup() float64 {
	if p.Cold.SettledTime <= 0 || p.Warm.SettledTime <= 0 {
		return 0
	}
	return p.Cold.SettledTime / p.Warm.SettledTime
}

// X15Tune summarises the offline search verdict over the shift capture.
type X15Tune struct {
	CaptureDigest string
	Recommended   trace.Knobs
	PredictedS    float64
	RecordedS     float64
	Candidates    int
	Replays       int
	Abandoned     int
	MemoHits      int
}

// X15Result is the closed-loop tuning experiment.
type X15Result struct {
	Scale  Scale
	Points []X15Point
	Tune   X15Tune
}

// Pass checks the acceptance gates: the warm start must settle strictly
// earlier than the cold climb on every point, and the offline search
// must recommend the lookahead victim policy on the shift capture.
func (r *X15Result) Pass() error {
	for _, p := range r.Points {
		if p.Warm.SettledTime < 0 {
			return fmt.Errorf("%s at %s: warm-started run never settled", p.App, gbs(p.Size))
		}
		if p.Cold.SettledTime >= 0 && p.Warm.SettledTime >= p.Cold.SettledTime {
			return fmt.Errorf("%s at %s: warm settle %.6fs did not beat cold %.6fs",
				p.App, gbs(p.Size), p.Warm.SettledTime, p.Cold.SettledTime)
		}
	}
	if want := core.Lookahead.Name(); r.Tune.Recommended.EvictPolicy != want {
		return fmt.Errorf("offline tune on the shift capture recommends victim=%s, want %s",
			r.Tune.Recommended.EvictPolicy, want)
	}
	return nil
}

// x15Point runs the cold climb, seeds the warm run with its verdict and
// assembles the point.
func (sw *Sweep) x15Point(app string, size int64, run func(warm core.Options) Run) (X15Point, error) {
	p := X15Point{App: app, Size: size}
	cold, err := sw.do(run(core.Options{}))
	if err != nil {
		return p, fmt.Errorf("exp: adaptive %s at %s: %w", app, gbs(size), err)
	}
	p.Cold = *cold.Verdict
	warm, err := sw.do(run(p.Cold.Final))
	if err != nil {
		return p, fmt.Errorf("exp: adaptive %s at %s: %w", app, gbs(size), err)
	}
	p.Warm = *warm.Verdict
	return p, nil
}

// RunX15 runs X15 on a fresh sweep at s.
func RunX15(s Scale) (*X15Result, error) { return (&Sweep{Scale: s}).X15() }

// ShiftCapture records X10's declaration-order shift run at s on a
// fresh sweep: the capture X15's offline search improves on.
func ShiftCapture(s Scale) (*trace.Capture, error) {
	sw := &Sweep{Scale: s}
	o, err := sw.do(sw.x10Capture())
	if err != nil {
		return nil, err
	}
	return o.Capture, nil
}

// SearchShift is X15's offline search over a shift capture. The search
// is scoped to the captured strategy: X10 measures the victim-policy
// effect directly under Multi-IO (the strategy the fixed sweeps already
// favour for this workload class), and the gate asks whether the
// replay-driven objective reproduces that ranking. Cross-strategy
// choice is X3/X9's subject, judged by live measurement; an unscoped
// search may surface a different strategy by a hair and say nothing
// about victim ordering either way.
func SearchShift(c *trace.Capture) (*tune.RecommendedConfig, error) {
	return tune.Tune(c, tune.Config{Space: tune.Space{Modes: []string{core.MultiIO.String()}}})
}

// X15 runs the closed-loop tuning experiment at the sweep's scale. Its
// cold climbs are X9's stencil runs and its capture is X11's, so after
// those experiments a sweep runs only the warm starts and the matmul
// climbs.
func (sw *Sweep) X15() (*X15Result, error) {
	s := sw.Scale
	res := &X15Result{Scale: s}
	for _, red := range s.StencilReducedSizes() {
		p, err := sw.x15Point("stencil", red, func(warm core.Options) Run { return sw.adaptiveStencil(red, warm) })
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	for _, total := range s.MatMulTotalSizes() {
		// The strategy is fixed as in X9, but the controller starts at
		// the bottom staging rung, not X9's already-favourable unlimited
		// depth. From d0 the first scored window sees no bottleneck and
		// the cold run settles immediately, making cold-vs-warm a
		// comparison of float noise; from d1 the cold climb has the
		// depth ladder to walk, which is exactly the work the warm start
		// is supposed to skip.
		p, err := sw.x15Point("matmul", total, func(warm core.Options) Run { return sw.adaptiveMatMul(total, 1, warm) })
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}

	// The capture the offline search has to improve on: X10's shift
	// workload under the default declaration-order victim policy.
	c, err := sw.do(sw.x10Capture())
	if err != nil {
		return nil, fmt.Errorf("exp: shift capture: %w", err)
	}
	rc, err := SearchShift(c.Capture)
	if err != nil {
		return nil, fmt.Errorf("exp: x15 tune: %w", err)
	}
	res.Tune = X15Tune{
		CaptureDigest: rc.CaptureDigest,
		Recommended:   rc.Knobs,
		PredictedS:    rc.PredictedMakespanS,
		RecordedS:     rc.RecordedMakespanS,
		Candidates:    len(rc.Trace),
		Replays:       rc.Replays,
		Abandoned:     rc.Abandoned,
		MemoHits:      rc.MemoHits,
	}
	return res, nil
}

// x15Knobs renders a replayed knob set like describeOptions renders
// live options.
func x15Knobs(k trace.Knobs) string {
	s := k.Mode
	if k.IOThreads > 0 {
		s += fmt.Sprintf(" io%d", k.IOThreads)
	}
	if k.PrefetchDepth > 0 {
		s += fmt.Sprintf(" d%d", k.PrefetchDepth)
	}
	s += " victim=" + k.EvictPolicy
	if k.EvictLazily {
		s += " lazy"
	}
	return s
}

// settleCell renders a time-to-settle for the table.
func settleCell(v float64) string {
	if v < 0 {
		return "never"
	}
	return fmt.Sprintf("%.4f", v)
}

// Table renders the cold-vs-warm sweep with the offline verdict in the
// notes.
func (r *X15Result) Table() Table {
	t := Table{
		Title: "X15: offline autotuner + warm-started online adaptation",
		Header: []string{"app", "size", "cold settle (s)", "warm settle (s)",
			"speedup", "cold landed", "warm landed"},
		Notes: []string{
			"settle = virtual time at which the controller first entered its settled phase",
			"warm runs are seeded with the cold run's verdict (adapt.Config.Warm)",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.App,
			gbs(p.Size),
			settleCell(p.Cold.SettledTime),
			settleCell(p.Warm.SettledTime),
			f2(p.Speedup()),
			describeOptions(p.Cold.Final),
			describeOptions(p.Warm.Final),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"offline tune on the shift capture: recommends %s, predicted %.3f s vs recorded %.3f s",
		x15Knobs(r.Tune.Recommended), r.Tune.PredictedS, r.Tune.RecordedS))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"search: %d candidates, %d replays (%d abandoned early, %d memo hits), capture %.12s",
		r.Tune.Candidates, r.Tune.Replays, r.Tune.Abandoned, r.Tune.MemoHits, r.Tune.CaptureDigest))
	return t
}

// X15BenchPoint is the JSON snapshot of one point for BENCH_tune.json.
type X15BenchPoint struct {
	App        string  `json:"app"`
	SizeBytes  int64   `json:"size_bytes"`
	ColdSettle float64 `json:"cold_settle_s"`
	WarmSettle float64 `json:"warm_settle_s"`
	Speedup    float64 `json:"settle_speedup"`
	ColdLanded string  `json:"cold_landed"`
	WarmLanded string  `json:"warm_landed"`
}

// X15BenchTune is the offline-search half of the snapshot.
type X15BenchTune struct {
	CaptureDigest string  `json:"capture_digest"`
	Recommended   string  `json:"recommended"`
	VictimPolicy  string  `json:"victim_policy"`
	PredictedS    float64 `json:"predicted_makespan_s"`
	RecordedS     float64 `json:"recorded_makespan_s"`
	Candidates    int     `json:"candidates"`
	Replays       int     `json:"replays"`
	Abandoned     int     `json:"abandoned"`
	MemoHits      int     `json:"memo_hits"`
}

// X15Bench is the benchmark snapshot X15 writes (BENCH_tune.json).
type X15Bench struct {
	Scale  string          `json:"scale"`
	Metric string          `json:"metric"`
	Points []X15BenchPoint `json:"points"`
	Tune   X15BenchTune    `json:"tune"`
}

// Bench converts the result for JSON emission.
func (r *X15Result) Bench() X15Bench {
	b := X15Bench{
		Scale:  r.Scale.String(),
		Metric: "virtual time-to-settle (s), cold vs warm-started controller",
		Tune: X15BenchTune{
			CaptureDigest: r.Tune.CaptureDigest,
			Recommended:   x15Knobs(r.Tune.Recommended),
			VictimPolicy:  r.Tune.Recommended.EvictPolicy,
			PredictedS:    r.Tune.PredictedS,
			RecordedS:     r.Tune.RecordedS,
			Candidates:    r.Tune.Candidates,
			Replays:       r.Tune.Replays,
			Abandoned:     r.Tune.Abandoned,
			MemoHits:      r.Tune.MemoHits,
		},
	}
	for _, p := range r.Points {
		b.Points = append(b.Points, X15BenchPoint{
			App:        p.App,
			SizeBytes:  p.Size,
			ColdSettle: p.Cold.SettledTime,
			WarmSettle: p.Warm.SettledTime,
			Speedup:    p.Speedup(),
			ColdLanded: describeOptions(p.Cold.Final),
			WarmLanded: describeOptions(p.Warm.Final),
		})
	}
	return b
}
