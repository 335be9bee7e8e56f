package exp

import (
	"fmt"
	"slices"
	"strings"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/trace"
)

// X11 validates the trace capture/replay engine on two legs:
//
//   - Fidelity: the Fig 8 sweep's overflow point (the largest reduced
//     working set) is run under MultiIO with a recorder attached, the
//     capture is reconstructed into a workload, and the workload is
//     re-driven through the real scheduler under identical knobs. The
//     acceptance bar is byte-identical schedules: every task's send,
//     run-start and run-end time agrees to the last bit
//     (Capture.ScheduleString equality), and the makespans match.
//
//   - What-if: the X10 working-set-shift program is captured once under
//     declaration-order eviction, then replayed under each victim
//     policy — no new workload runs, just the capture re-driven with
//     different knobs. The replayed policy deltas must agree
//     directionally with X10's real fixed-policy runs: lookahead forces
//     no more evictions of still-needed blocks than declaration order,
//     in the replay exactly as on the real runs.
//
// Together the legs justify trusting what-if numbers: leg 1 shows the
// replayer reproduces reality exactly when nothing changes, leg 2 shows
// its deltas point the same way as ground truth when something does.

// x11Fidelity is the fidelity-leg run: the Fig 8 overflow point under
// MultiIO with metrics on (the capture's stats footer reads them). With
// record set it carries a recorder, whose capture's stats footer holds
// the makespan (engine time at capture finish, the same instant a
// replay's footer is stamped at); without, it is the baseline for the
// capture-overhead measurement.
func (sw *Sweep) x11Fidelity(record bool) runner.Run {
	opts := sw.Options(core.MultiIO)
	opts.Metrics = true
	r := sw.run(opts, sw.Scale.overflowStencil())
	r.Record = record
	return r
}

// X11WhatIfRow compares one victim policy's replayed outcome against
// the real fixed run of the same policy on the shift workload. It is
// also the row BENCH_trace.json records, without the eviction totals.
type X11WhatIfRow struct {
	Policy string `json:"policy"`

	// Replayed outcome (whole-run counters from the replay capture).
	ReplayTime      float64 `json:"replay_time_s"`
	ReplayRefetches int64   `json:"replay_refetches"`
	ReplayForced    int64   `json:"replay_forced"`
	ReplayEvictions int64   `json:"-"`

	// Real fixed-run outcome (X10 counters; Time is post-shift).
	RealTime      float64 `json:"real_time_s"`
	RealRefetches int64   `json:"real_refetches"`
	RealForced    int64   `json:"real_forced"`
	RealEvictions int64   `json:"-"`
}

// X11Result is the replay validation outcome.
type X11Result struct {
	Scale Scale

	// Fidelity leg.
	Tasks            int64
	Events           int
	RecordedMakespan float64
	ReplayedMakespan float64
	Identical        bool

	// Capture-overhead leg: the same workload untraced. Recording adds
	// zero virtual time by construction, so OverheadPct should be 0.
	UntracedMakespan float64
	OverheadPct      float64

	// What-if leg, one row per victim policy.
	WhatIf []X11WhatIfRow

	// Sample is the fidelity leg's capture, kept for -trace emission.
	Sample *trace.Capture `json:"-"`
}

// Row returns the what-if row for a policy, or nil.
func (r *X11Result) Row(policy string) *X11WhatIfRow {
	for i := range r.WhatIf {
		if r.WhatIf[i].Policy == policy {
			return &r.WhatIf[i]
		}
	}
	return nil
}

// Consistent reports whether the replayed policy deltas agree
// directionally with the real runs: lookahead's forced evictions and
// refetches do not exceed declaration order's, on both sides.
func (r *X11Result) Consistent() bool {
	decl, look := r.Row(core.DeclOrder.Name()), r.Row(core.Lookahead.Name())
	if decl == nil || look == nil {
		return false
	}
	return look.ReplayForced <= decl.ReplayForced &&
		look.RealForced <= decl.RealForced &&
		look.ReplayRefetches <= decl.ReplayRefetches &&
		look.RealRefetches <= decl.RealRefetches
}

// X11 runs both legs at the sweep's scale.
func (sw *Sweep) X11() (*X11Result, error) {
	res := &X11Result{Scale: sw.Scale}

	// Leg 1: fidelity on the Fig 8 overflow point.
	traced, err := sw.do(sw.x11Fidelity(true))
	if err != nil {
		return nil, fmt.Errorf("exp: x11 stencil capture: %w", err)
	}
	cap := traced.Capture
	res.Sample = cap
	res.Events = len(cap.Events)
	if st := cap.Stats(); st != nil {
		res.Tasks = st.Tasks
		res.RecordedMakespan = float64(st.Makespan)
	}
	w, err := trace.Reconstruct(cap)
	if err != nil {
		return nil, fmt.Errorf("exp: x11 reconstruct: %w", err)
	}
	rep, err := runner.Replay(w, runner.ReplayConfig{})
	if err != nil {
		return nil, fmt.Errorf("exp: x11 fidelity replay: %w", err)
	}
	res.ReplayedMakespan = float64(rep.Makespan)
	res.Identical = rep.Capture.ScheduleString() == cap.ScheduleString() &&
		res.ReplayedMakespan == res.RecordedMakespan

	// Overhead leg: the same workload with no recorder attached.
	untraced, err := sw.do(sw.x11Fidelity(false))
	if err != nil {
		return nil, fmt.Errorf("exp: x11 untraced baseline: %w", err)
	}
	res.UntracedMakespan = float64(untraced.End)
	if res.UntracedMakespan > 0 {
		res.OverheadPct = (res.RecordedMakespan - res.UntracedMakespan) / res.UntracedMakespan * 100
	}

	// Leg 2: what-if on the shift workload, one capture, every policy.
	shiftCap, err := sw.do(sw.x10Capture())
	if err != nil {
		return nil, fmt.Errorf("exp: shift capture: %w", err)
	}
	shift, err := trace.Reconstruct(shiftCap.Capture)
	if err != nil {
		return nil, fmt.Errorf("exp: x11 reconstruct shift: %w", err)
	}
	for _, pol := range core.EvictPolicies() {
		knobs := shift.Meta.Knobs
		knobs.EvictPolicy = pol.Name()
		// The what-if rows read the verdict alone, so the replay records
		// nothing.
		v, err := runner.Judge(shift, runner.ReplayConfig{Knobs: &knobs})
		if err != nil {
			return nil, fmt.Errorf("exp: x11 what-if %s: %w", pol.Name(), err)
		}
		real, err := sw.x10Row("shift", pol, sw.x10Shift(pol))
		if err != nil {
			return nil, err
		}
		res.WhatIf = append(res.WhatIf, X11WhatIfRow{
			Policy:          pol.Name(),
			ReplayTime:      float64(v.Makespan),
			ReplayRefetches: v.Stats.Refetches,
			ReplayForced:    v.Stats.ForcedEvictions,
			ReplayEvictions: v.Stats.Evictions,
			RealTime:        real.Time,
			RealRefetches:   real.Refetches,
			RealForced:      real.Forced,
			RealEvictions:   real.Evictions,
		})
	}
	return res, nil
}

// Table renders the validation outcome.
func (r *X11Result) Table() Table {
	verdict := "BYTE-IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	t := Table{
		Title: "X11: trace replay fidelity + what-if consistency",
		Header: []string{"policy", "replay time (s)", "re-refetch", "re-forced",
			"real time (s)", "refetch", "forced"},
		Notes: []string{
			fmt.Sprintf("fidelity: fig8 overflow capture (%d tasks, %d events) replayed under identical knobs: %s",
				r.Tasks, r.Events, verdict),
			fmt.Sprintf("  recorded makespan %s s, replayed %s s", f3(r.RecordedMakespan), f3(r.ReplayedMakespan)),
			fmt.Sprintf("capture overhead: %.3f%% virtual-time delta vs untraced (%s s)",
				r.OverheadPct, f3(r.UntracedMakespan)),
			"what-if: one shift capture under decl, replayed per policy vs real fixed runs",
			"  replay time is whole-run makespan; real time is post-shift (the X10 metric)",
		},
	}
	for _, row := range r.WhatIf {
		t.Rows = append(t.Rows, []string{
			row.Policy,
			f3(row.ReplayTime),
			fmt.Sprintf("%d", row.ReplayRefetches),
			fmt.Sprintf("%d", row.ReplayForced),
			f3(row.RealTime),
			fmt.Sprintf("%d", row.RealRefetches),
			fmt.Sprintf("%d", row.RealForced),
		})
	}
	consistency := "replayed deltas agree directionally with real runs"
	if !r.Consistent() {
		consistency = "INCONSISTENT: replayed deltas disagree with real runs"
	}
	t.Notes = append(t.Notes, consistency)
	return t
}

// X11Bench is the JSON snapshot of the replay validation.
type X11Bench struct {
	Scale            string         `json:"scale"`
	Tasks            int64          `json:"tasks"`
	Events           int            `json:"events"`
	RecordedMakespan float64        `json:"recorded_makespan_s"`
	ReplayedMakespan float64        `json:"replayed_makespan_s"`
	Identical        bool           `json:"replay_identical"`
	UntracedMakespan float64        `json:"untraced_makespan_s"`
	OverheadPct      float64        `json:"capture_overhead_pct"`
	Consistent       bool           `json:"whatif_consistent"`
	WhatIf           []X11WhatIfRow `json:"whatif"`
}

// Bench converts the result for JSON emission.
func (r *X11Result) Bench() X11Bench {
	whatIf := slices.Clone(r.WhatIf)
	slices.SortStableFunc(whatIf, func(a, b X11WhatIfRow) int { return strings.Compare(a.Policy, b.Policy) })
	return X11Bench{
		Scale:            r.Scale.String(),
		Tasks:            r.Tasks,
		Events:           r.Events,
		RecordedMakespan: r.RecordedMakespan,
		ReplayedMakespan: r.ReplayedMakespan,
		Identical:        r.Identical,
		UntracedMakespan: r.UntracedMakespan,
		OverheadPct:      r.OverheadPct,
		Consistent:       r.Consistent(),
		WhatIf:           whatIf,
	}
}
