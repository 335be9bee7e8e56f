package exp

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/hetmem/hetmem/internal/trace"
)

// Outcome is what one registry entry's run produces.
type Outcome struct {
	Table    Table
	Snapshot any            // written as indented JSON to the entry's Snapshot file; nil if none
	Gate     error          // nil when the entry has no gate or the gate holds
	Sample   *trace.Capture // X11's sample capture (the Fig 8 overflow run); nil elsewhere
}

// Experiment is one registry entry: a paper figure or an extension.
type Experiment struct {
	Name     string // the short name hmrepro -only takes
	Sweep    bool   // whether the default sweep runs it
	Snapshot string // the committed BENCH_*.json file it writes, "" if none
	Run      func(Scale) (Outcome, error)
}

// Extension reports whether e is one of X1-X15 rather than a figure.
func (e Experiment) Extension() bool { return strings.HasPrefix(e.Name, "x") }

// Experiments returns the registry in sweep order. X12 is the one entry
// outside the default sweep: its numbers are host wall-clock.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "fig1", Sweep: true, Run: tableOnly(RunFig1)},
		{Name: "fig2", Sweep: true, Run: tableOnly(RunFig2)},
		{Name: "fig56", Sweep: true, Run: tableOnly(RunFig56)},
		{Name: "fig7", Sweep: true, Run: tableOnly(RunFig7)},
		{Name: "fig8", Sweep: true, Run: tableOnly(RunFig8)},
		{Name: "fig9", Sweep: true, Run: tableOnly(RunFig9)},
		{Name: "x1", Sweep: true, Run: tableOnly(RunCacheMode)},
		{Name: "x2", Sweep: true, Run: tableOnly(RunAblationQueues)},
		{Name: "x3", Sweep: true, Run: tableOnly(RunAblationIOThreads)},
		{Name: "x4", Sweep: true, Run: tableOnly(RunAblationEviction)},
		{Name: "x5", Sweep: true, Run: tableOnly(RunNVM)},
		{Name: "x6", Sweep: true, Run: tableOnly(RunAblationPrefetchDepth)},
		{Name: "x7", Sweep: true, Run: tableOnly(RunLoadBalance)},
		{Name: "x8", Sweep: true, Run: benched[*ClusterResult, any](RunCluster, nil, (*ClusterResult).Pass)},
		{Name: "x9", Sweep: true, Snapshot: "BENCH_adapt.json", Run: benched(RunX9, (*X9Result).Bench, nil)},
		{Name: "x10", Sweep: true, Snapshot: "BENCH_evict.json", Run: benched(RunX10, (*X10Result).Bench, nil)},
		{Name: "x11", Sweep: true, Snapshot: "BENCH_trace.json", Run: runX11Outcome},
		{Name: "x12", Snapshot: "BENCH_engine.json", Run: benched(RunX12, (*X12Result).Bench, func(r *X12Result) error {
			return check(r.Cluster.Identical, "serial and parallel cluster runs diverged (see table above)")
		})},
		{Name: "x13", Sweep: true, Snapshot: "BENCH_serve.json", Run: benched(RunX13, (*X13Result).Bench, func(r *X13Result) error {
			return check(r.Pass(), "budget isolation gate failed (see table above)")
		})},
		{Name: "x14", Sweep: true, Snapshot: "BENCH_tiers.json", Run: benched(RunX14, (*X14Result).Bench, (*X14Result).Pass)},
		{Name: "x15", Sweep: true, Snapshot: "BENCH_tune.json", Run: benched(RunX15, (*X15Result).Bench, (*X15Result).Pass)},
	}
}

// Select returns the named experiments in registry order. An unknown
// name is an error that lists the valid ones.
func Select(names []string) ([]Experiment, error) {
	var sel []Experiment
	for _, e := range Experiments() {
		if slices.Contains(names, e.Name) {
			sel = append(sel, e)
		}
	}
	for _, n := range names {
		if !slices.ContainsFunc(sel, func(e Experiment) bool { return e.Name == n }) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", n, ExperimentNames())
		}
	}
	return sel, nil
}

// ExperimentNames lists the registry's names in order, space-separated.
func ExperimentNames() string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return strings.Join(names, " ")
}

// tableOnly adapts a Run function with neither a snapshot nor a gate.
func tableOnly[R interface{ Table() Table }](run func(Scale) (R, error)) func(Scale) (Outcome, error) {
	return benched[R, any](run, nil, nil)
}

// benched adapts a Run function whose result has a table, an optional
// snapshot and an optional gate.
func benched[R interface{ Table() Table }, B any](run func(Scale) (R, error), bench func(R) B, gate func(R) error) func(Scale) (Outcome, error) {
	return func(s Scale) (Outcome, error) {
		r, err := run(s)
		if err != nil {
			return Outcome{}, err
		}
		o := Outcome{Table: r.Table()}
		if bench != nil {
			o.Snapshot = bench(r)
		}
		if gate != nil {
			o.Gate = gate(r)
		}
		return o, nil
	}
}

// runX11Outcome also hands back X11's sample capture.
func runX11Outcome(s Scale) (Outcome, error) {
	r, err := RunX11(s)
	if err != nil {
		return Outcome{}, err
	}
	gate := check(r.Identical && r.Consistent(), "replay validation failed (see table above)")
	return Outcome{Table: r.Table(), Snapshot: r.Bench(), Gate: gate, Sample: r.Sample}, nil
}

// check turns a boolean gate into an error.
func check(ok bool, msg string) error {
	if ok {
		return nil
	}
	return errors.New(msg)
}
