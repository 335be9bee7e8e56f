package exp

import (
	"fmt"
	"slices"

	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/runner"
)

// runKey renders r in Go syntax, which names every type and prints every
// float exactly, so two runs share a key exactly when their inputs are
// equal. A stencil whose Weight is a func (X7's) has no key.
func runKey(r runner.Run) (string, bool) {
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
// executes each distinct run once. EvictPolicy, when non-nil, applies
// to the movement-mode runs built from the paper's options. A Sweep
// needs only its Scale set; it is not safe for concurrent use.
type Sweep struct {
	Scale       Scale
	Audit       bool
	EvictPolicy core.EvictPolicy

	memo     map[string]*runner.Outcome
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
func (sw *Sweep) run(opts core.Options, app kernels.Workload) runner.Run {
	return runner.Run{EnvConfig: kernels.EnvConfig{Spec: sw.Scale.Machine(), NumPEs: sw.Scale.NumPEs(), Opts: opts}, App: app}
}

// adaptive describes app under opts with the online controller, warm
// started from warm unless it is zero. Its auditor is on under any
// sweep: every adaptive run must be audit-clean.
func (sw *Sweep) adaptive(opts core.Options, app kernels.Workload, warm core.Options) runner.Run {
	opts.Audit = true
	r := sw.run(opts, app)
	r.Adapt = runner.Adapt{On: true, Warm: warm}
	return r
}

// do returns r's outcome, executing r unless the sweep already has.
func (sw *Sweep) do(r runner.Run) (*runner.Outcome, error) {
	key, keyed := runKey(r)
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
			sw.memo = make(map[string]*runner.Outcome)
		}
		sw.memo[key] = o
	}
	return o, nil
}
