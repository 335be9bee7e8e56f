package runner

import (
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
)

// ReplayConfig parameterises a replay of a reconstructed capture.
type ReplayConfig struct {
	// Knobs overrides the recorded knob set (what-if mode); nil replays
	// under the recorded configuration.
	Knobs *trace.Knobs
	// AbandonAbove, when positive, stops the replay once its makespan
	// provably reaches the bound: only events strictly earlier than the
	// bound run, and work still pending afterwards proves the true
	// makespan >= AbandonAbove, since virtual time only moves forward. A
	// candidate strictly faster than the bound always completes. Zero
	// replays to completion.
	AbandonAbove sim.Time
}

// Verdict is what a replay is judged by: the virtual makespan and the
// manager's movement counters, which a capture's stats footer copies.
// An abandoned replay's Makespan is the abandon bound, a proven lower
// bound on the true makespan, and its Stats count up to the cut.
type Verdict struct {
	Makespan  sim.Time
	Abandoned bool
	Stats     core.Stats
}

// ReplayResult is a finished recorded replay: its verdict and its own
// capture, so recorded and replayed runs compare schedule for schedule.
// An abandoned replay's Capture is the truncated prefix.
type ReplayResult struct {
	Verdict
	Capture *trace.Capture
}

// Replay re-drives the workload through the real scheduler, as a run on
// the capture's machine, PEs, params and seed under cfg's knobs (or the
// recorded ones) whose application is the workload itself, and records
// the replay's capture. Under the recorded knobs the replay reproduces
// the recorded schedule byte-identically (ScheduleString equality, which
// experiment X11 verifies at full scale).
func Replay(w *trace.Workload, cfg ReplayConfig) (*ReplayResult, error) {
	v, c, err := replay(w, cfg, true)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{Verdict: v, Capture: c}, nil
}

// Judge replays the workload as Replay does with no recorder, and
// returns the verdict alone, which equals Replay's: a recorder adds no
// virtual time.
func Judge(w *trace.Workload, cfg ReplayConfig) (Verdict, error) {
	v, _, err := replay(w, cfg, false)
	return v, err
}

// replay runs w under cfg, recording when record is set.
func replay(w *trace.Workload, cfg ReplayConfig, record bool) (Verdict, *trace.Capture, error) {
	knobs := w.Meta.Knobs
	if cfg.Knobs != nil {
		knobs = *cfg.Knobs
	}
	opts, err := knobs.Options()
	if err != nil {
		return Verdict{}, nil, err
	}
	m := w.Meta
	r := Run{EnvConfig: kernels.EnvConfig{Spec: m.Spec, NumPEs: m.NumPEs, Opts: opts, Params: m.Params, Seed: m.Seed}, App: w, Record: record}
	return r.before(cfg.AbandonAbove)
}

// before builds the run and drives its engine until it drains or, with
// a positive bound, until only events at or beyond the bound remain.
func (r Run) before(bound sim.Time) (Verdict, *trace.Capture, error) {
	b, err := r.Build()
	if b == nil {
		return Verdict{}, nil, err
	}
	defer b.Close()
	if err != nil {
		return Verdict{}, nil, err
	}
	b.App.Start()
	var v Verdict
	if bound > 0 {
		// RunBefore (not Run) never clamps the clock up to the bound, so
		// a run that finishes under it reports its true makespan. Pending
		// work all sits at or beyond the bound; Close kills it.
		b.Eng.RunBefore(bound)
		v.Abandoned = !b.Eng.Idle()
	} else {
		b.Eng.RunAll()
	}
	v.Makespan = b.Eng.Now()
	if v.Abandoned {
		v.Makespan = bound
	}
	v.Stats = b.MG.Stats
	if b.Rec == nil {
		return v, nil, nil
	}
	return v, b.Rec.Capture(), nil
}
