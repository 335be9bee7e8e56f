package exp

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
)

// X10 compares the eviction victim-selection policies (DeclOrder, LRU,
// Lookahead) where they actually disagree — under capacity pressure
// with queued work — and then checks that the adaptive controller
// survives a mid-run working-set shift. Two fixed-policy workloads:
//
//   - fig8-stencil: the Fig 8 sweep's overflow point (largest reduced
//     working set) under MultiIO with lazy eviction, where the resident
//     set cycles through a grid larger than HBM every iteration.
//   - shift: the working-set-shift program (kernels.ShiftApp) whose
//     declared dependences widen mid-run from a hot set that fits HBM
//     to one a third larger than it.
//
// The acceptance bar is that Lookahead — which ranks victims by
// declared next use, walking the wait queues — forces strictly fewer
// evictions of still-needed blocks and causes strictly fewer refetches
// than declaration order on both workloads.
//
// The adaptive run starts the shift workload on MultiIO eager with the
// default controller. It must settle during the hot phase, detect the
// shift (settled-phase guard: score collapse plus contention for two
// consecutive windows), upgrade the victim policy to Lookahead, re-open
// the climb and settle again — all audit-clean.

// x10PreIters/x10PostIters size the shift program: enough hot windows
// for the controller to settle, enough widened windows to re-settle
// after the reopen.
const (
	x10PreIters  = 8
	x10PostIters = 10
)

// ShiftConfig sizes the working-set-shift program for the scale: the
// hot set is 2/3 of the HBM block budget (fits comfortably), the shift
// doubles it to 4/3 (cannot fit), split over 8 chares per PE — deep
// enough wait queues that "k tasks ahead of this block's consumer" is
// real temporal information for the lookahead policy.
func (s Scale) ShiftConfig() kernels.ShiftConfig {
	budget := s.Machine().HBMCap - s.HBMReserve()
	n := 8 * s.NumPEs()
	block := budget / int64(12*s.NumPEs())
	return kernels.ShiftConfig{
		HotBytes:  block * int64(n),
		ColdBytes: block * int64(n),
		NumChares: n,
		PreIters:  x10PreIters,
		PostIters: x10PostIters,
		Sweeps:    10,
		NumPEs:    s.NumPEs(),
	}
}

// X10Row is one fixed-policy run of one workload, as BENCH_evict.json
// records it.
type X10Row struct {
	Workload string `json:"workload"` // "fig8-stencil" or "shift"
	Policy   string `json:"policy"`
	// Time is the phase the policies differentiate on: total time for
	// the stencil, post-shift time for the shift program (the hot
	// phase is identical across policies by construction).
	Time      float64 `json:"time_s"`
	Fetches   int64   `json:"fetches"`
	Refetches int64   `json:"refetches"`
	Evictions int64   `json:"evictions"`
	Forced    int64   `json:"forced_evictions"`
	Retries   int64   `json:"stage_retries"`
}

// X10Result is the policy comparison plus the adaptive shift run.
type X10Result struct {
	Scale Scale
	Rows  []X10Row

	// Adaptive-run outcome on the shift workload.
	AdaptiveTime float64
	adapt.Verdict
}

// Row returns the row for a workload/policy pair, or nil.
func (r *X10Result) Row(workload, policy string) *X10Row {
	for i := range r.Rows {
		if r.Rows[i].Workload == workload && r.Rows[i].Policy == policy {
			return &r.Rows[i]
		}
	}
	return nil
}

// FinalPolicy names the victim policy the adaptive run ended on.
func (r *X10Result) FinalPolicy() string {
	if r.Final.EvictPolicy == nil {
		return core.DeclOrder.Name()
	}
	return r.Final.EvictPolicy.Name()
}

// x10Options is the fixed-run configuration: MultiIO with lazy
// eviction (resident blocks persist across iterations, so reclaim has
// real choices), a bounded prefetch depth, and metrics on for the
// eviction counters. The depth bound matters: with unlimited prefetch
// every queued task is staged as soon as capacity allows, so queue
// position carries no temporal information and no victim choice can
// dodge the staging wave. Bounded staging is where declared-dependence
// lookahead has real signal — a block deep in a queue truly is not
// needed until the tasks ahead of it complete.
func (sw *Sweep) x10Options(pol core.EvictPolicy) core.Options {
	o := sw.Options(core.MultiIO)
	o.EvictLazily = true
	o.EvictPolicy = pol
	o.PrefetchDepth = 1
	o.Metrics = true
	return o
}

// x10Shift is the shift program under one policy: X10's fixed run and
// the real side of X11's what-if table.
func (sw *Sweep) x10Shift(pol core.EvictPolicy) Run {
	return sw.run(sw.x10Options(pol), sw.Scale.ShiftConfig())
}

// x10Capture is X10's declaration-order shift run with a recorder:
// the capture X11 replays under every victim policy and X15's offline
// search has to improve on.
func (sw *Sweep) x10Capture() Run {
	r := sw.x10Shift(core.DeclOrder)
	r.Record = true
	return r
}

// x10Row runs one fixed-policy workload and reads its counters into a
// row.
func (sw *Sweep) x10Row(workload string, pol core.EvictPolicy, r Run) (X10Row, error) {
	row := X10Row{Workload: workload, Policy: pol.Name()}
	o, err := sw.do(r)
	if err != nil {
		return row, fmt.Errorf("exp: x10 %s %s: %w", workload, pol.Name(), err)
	}
	row.Time = float64(o.Time)
	if workload == "shift" {
		row.Time = float64(o.PostShift)
	}
	row.Fetches = o.Stats.Fetches
	row.Refetches = o.Stats.Refetches
	row.Evictions = o.Stats.Evictions
	row.Forced = o.Stats.ForcedEvictions
	row.Retries = o.Stats.StageRetries
	return row, nil
}

// X10 runs the full comparison at the sweep's scale.
func (sw *Sweep) X10() (*X10Result, error) {
	s := sw.Scale
	res := &X10Result{Scale: s}
	for _, pol := range core.EvictPolicies() {
		row, err := sw.x10Row("fig8-stencil", pol, sw.run(sw.x10Options(pol), s.overflowStencil()))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, pol := range core.EvictPolicies() {
		row, err := sw.x10Row("shift", pol, sw.x10Shift(pol))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	// Adaptive run: default controller, barrier sampling, starting on
	// MultiIO eager with the default victim policy.
	o, err := sw.do(sw.adaptive(sw.Options(core.MultiIO), s.ShiftConfig(), Adapt{}))
	if err != nil {
		return nil, fmt.Errorf("exp: x10 adaptive shift: %w", err)
	}
	res.AdaptiveTime, res.Verdict = float64(o.Time), *o.Verdict
	return res, nil
}

// Table renders the comparison with the adaptive trace in the notes.
func (r *X10Result) Table() Table {
	t := Table{
		Title: "X10: eviction victim selection under capacity pressure + mid-run shift",
		Header: []string{"workload", "policy", "time (s)", "fetches", "refetches",
			"evictions", "forced", "retries"},
		Notes: []string{
			"fixed runs: multi-io, lazy eviction; stencil time is total, shift time is post-shift",
			"forced = evictions of blocks a queued task had declared (wrong victim)",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Workload,
			row.Policy,
			f3(row.Time),
			fmt.Sprintf("%d", row.Fetches),
			fmt.Sprintf("%d", row.Refetches),
			fmt.Sprintf("%d", row.Evictions),
			fmt.Sprintf("%d", row.Forced),
			fmt.Sprintf("%d", row.Retries),
		})
	}
	settled := "no"
	if r.ConvergedWindow >= 0 {
		settled = fmt.Sprintf("w%d", r.ConvergedWindow)
	}
	reopened := "never"
	if r.ReopenWindow >= 0 {
		reopened = fmt.Sprintf("w%d", r.ReopenWindow)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"adaptive shift run: %.3f s total, reopened %s (%d reopens), re-settled %s, landed on %s victim=%s",
		r.AdaptiveTime, reopened, r.Reopens, settled, describeOptions(r.Final), r.FinalPolicy()))
	t.Notes = append(t.Notes, "adaptive trace:")
	for _, d := range r.Trace {
		t.Notes = append(t.Notes, "  "+d.String())
	}
	return t
}

// X10Bench is the benchmark snapshot X10 writes (BENCH_evict.json).
type X10Bench struct {
	Scale           string   `json:"scale"`
	Rows            []X10Row `json:"rows"`
	AdaptiveTime    float64  `json:"adaptive_time_s"`
	Reopens         int      `json:"reopens"`
	ReopenWindow    int      `json:"reopen_window"`
	ConvergedWindow int      `json:"converged_window"`
	FinalPolicy     string   `json:"final_policy"`
	Landed          string   `json:"landed_on"`
}

// Bench converts the result for JSON emission.
func (r *X10Result) Bench() X10Bench {
	rows := slices.Clone(r.Rows)
	slices.SortStableFunc(rows, func(a, b X10Row) int {
		return cmp.Or(strings.Compare(a.Workload, b.Workload), strings.Compare(a.Policy, b.Policy))
	})
	return X10Bench{
		Scale:           r.Scale.String(),
		Rows:            rows,
		AdaptiveTime:    r.AdaptiveTime,
		Reopens:         r.Reopens,
		ReopenWindow:    r.ReopenWindow,
		ConvergedWindow: r.ConvergedWindow,
		FinalPolicy:     r.FinalPolicy(),
		Landed:          describeOptions(r.Final),
	}
}
