package trace

import (
	"errors"
	"fmt"
	"strings"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// ErrTierMismatch marks a replay refused because the capture's
// recorded memory chain does not match the machine its spec rebuilds —
// e.g. a 3-tier capture whose spec was stripped back to the default
// two-tier machine. Callers (hmtrace) treat it like a damaged capture.
var ErrTierMismatch = errors.New("trace: capture tier chain does not match replay machine")

// RKernel is one recorded RunKernel call inside a task: Gap is the
// virtual time the task spent before this kernel (since run start or
// the previous kernel), replayed as a fixed cost; the kernel itself is
// re-executed through the real cost model so its duration responds to
// placement and contention under the replay's knobs.
type RKernel struct {
	Gap   sim.Time
	Flops float64
	Scale float64
}

// RTask is one task reconstructed from a capture: its send-time
// identity plus the recorded compute profile.
type RTask struct {
	*Send
	SentAt  sim.Time
	HasRun  bool
	Kernels []RKernel
	// TailGap is the non-kernel virtual time after the last kernel
	// (for kernel-free tasks, the whole recorded run duration).
	TailGap sim.Time
}

// Workload is a capture reduced to what the scheduler consumed: the
// machine/runtime description, the declared handles in declaration
// order, and the tasks in send (ID) order with their declared deps,
// arrival times and compute costs.
type Workload struct {
	Meta    *Meta
	Handles []*HandleDecl
	Tasks   []*RTask
}

// Reconstruct extracts the replayable workload from a capture. It
// works on truncated captures as long as the meta event survived;
// tasks whose run events were lost replay as zero-cost sends.
func Reconstruct(c *Capture) (*Workload, error) {
	m := c.Meta()
	if m == nil {
		return nil, fmt.Errorf("trace: capture has no meta event; cannot replay")
	}
	w := &Workload{Meta: m}
	byID := make(map[int64]*RTask)
	cursor := make(map[int64]sim.Time)
	for _, e := range c.Events {
		t := e.header().T
		switch ev := e.(type) {
		case *HandleDecl:
			w.Handles = append(w.Handles, ev)
		case *Send:
			rt := &RTask{Send: ev, SentAt: t}
			byID[ev.ID] = rt
			w.Tasks = append(w.Tasks, rt)
		case *RunStart:
			if rt, ok := byID[ev.ID]; ok {
				rt.HasRun = true
				cursor[ev.ID] = t
			}
		case *Kernel:
			if rt, ok := byID[ev.ID]; ok && rt.HasRun {
				gap := ev.Start - cursor[ev.ID]
				if gap < 0 {
					gap = 0
				}
				rt.Kernels = append(rt.Kernels, RKernel{Gap: gap, Flops: ev.Flops, Scale: ev.Scale})
				cursor[ev.ID] = t
			}
		case *RunEnd:
			if rt, ok := byID[ev.ID]; ok && rt.HasRun {
				if tail := t - cursor[ev.ID]; tail > 0 {
					rt.TailGap = tail
				}
			}
		}
	}
	return w, nil
}

// parseAccessMode inverts charm.AccessMode.String.
func parseAccessMode(s string) (charm.AccessMode, error) {
	for _, m := range []charm.AccessMode{charm.ReadOnly, charm.ReadWrite, charm.WriteOnly} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown access mode %q", s)
}

// ReplayConfig parameterises a replay run.
type ReplayConfig struct {
	// Knobs overrides the recorded knob set (what-if mode); nil replays
	// under the recorded configuration.
	Knobs *Knobs
	// AbandonAbove, when positive, stops the replay as soon as it is
	// provable that the makespan cannot beat the bound: only events
	// strictly earlier than the bound are executed, and if work is still
	// pending afterwards the true makespan is >= AbandonAbove. Virtual
	// time only moves forward, so the proof is exact — a search can
	// discard the candidate without paying for the rest of the replay,
	// and a candidate strictly faster than the bound always completes.
	// Zero replays to completion.
	AbandonAbove sim.Time
}

// Verdict is what a replay is judged by: the virtual makespan and the
// manager's movement counters at the end of the replay, the counters a
// capture's stats footer copies. An abandoned partial replay sets
// Abandoned; its Makespan is then the abandon bound (a proven lower
// bound on the true makespan, not the makespan itself) and its Stats
// count the movement up to the cut.
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
	Capture *Capture
}

// Replay re-drives the workload through the real scheduler: a fresh
// engine/machine/runtime/manager is built from the capture's meta
// event, handles are declared in recorded order, and a driver process
// re-issues every task at its recorded send time. Entry-method bodies
// re-execute their recorded kernels through the live cost model (so
// bandwidth contention and placement effects respond to the replay's
// knobs) with the recorded non-kernel time slept as fixed gaps.
//
// Under the recorded knobs, the replay reproduces the recorded
// schedule byte-identically (ScheduleString equality — experiment X11
// verifies this at full scale): task IDs are reassigned in the same
// order, same-instant sends are re-issued in their original relative
// order, and message latency is re-applied by the real Send path.
//
// Replay records the replay's capture; Judge runs the same replay with
// no recorder, for callers that read only the verdict.
func (w *Workload) Replay(cfg ReplayConfig) (*ReplayResult, error) {
	v, c, err := w.replay(cfg, true)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{Verdict: v, Capture: c}, nil
}

// Judge replays the workload as Replay does, with no recorder on the
// event stream, and returns the verdict alone: the tune search's and
// X11's what-if replays read nothing else. A recorder adds no virtual
// time, so the verdict equals the one Replay reports.
func (w *Workload) Judge(cfg ReplayConfig) (Verdict, error) {
	v, _, err := w.replay(cfg, false)
	return v, err
}

// replay is Replay's and Judge's body: it runs the workload under cfg
// and, when record is set, returns the replay's capture too.
func (w *Workload) replay(cfg ReplayConfig, record bool) (Verdict, *Capture, error) {
	knobs := w.Meta.Knobs
	if cfg.Knobs != nil {
		knobs = *cfg.Knobs
	}
	opts, err := knobs.Options()
	if err != nil {
		return Verdict{}, nil, err
	}
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   w.Meta.Spec,
		NumPEs: w.Meta.NumPEs,
		Opts:   opts,
		Params: w.Meta.Params,
		Seed:   w.Meta.Seed,
	})
	defer env.Close()
	// Tier-aware captures name their chain in the meta header; refuse
	// to replay against a machine with a different one. A fetch
	// recorded from NVM has no meaning on a machine without that tier,
	// and the what-if comparison would silently mix miss costs.
	// Captures from before tier chains (no Tiers field) skip the check.
	if len(w.Meta.Tiers) > 0 {
		var chain []string
		for _, n := range env.Mach.Chain() {
			chain = append(chain, n.Name)
		}
		if strings.Join(chain, ",") != strings.Join(w.Meta.Tiers, ",") {
			return Verdict{}, nil, fmt.Errorf("%w: capture recorded [%s], machine has [%s]",
				ErrTierMismatch, strings.Join(w.Meta.Tiers, " -> "), strings.Join(chain, " -> "))
		}
	}
	var rec *Recorder
	if record {
		rec = NewRecorder(env.MG)
		rec.Attach()
	}

	handles := make(map[string]*core.Handle, len(w.Handles))
	for _, hd := range w.Handles {
		handles[hd.Block] = env.MG.NewHandle(hd.Block, hd.Bytes)
	}

	deps := make([][]charm.DataDep, len(w.Tasks))
	for i, rt := range w.Tasks {
		for _, d := range rt.Deps {
			h, ok := handles[d.Block]
			if !ok {
				return Verdict{}, nil, fmt.Errorf("trace: task %d depends on undeclared block %q", rt.ID, d.Block)
			}
			mode, err := parseAccessMode(d.Mode)
			if err != nil {
				return Verdict{}, nil, err
			}
			deps[i] = append(deps[i], charm.DataDep{Handle: h, Mode: mode})
		}
	}

	// Array shapes, element placement and entry registrations, in first
	// appearance (send) order so construction is deterministic.
	type entryKey struct{ arr, entry string }
	var arrOrder []string
	arrLen := make(map[string]int)
	arrPE := make(map[string]map[int]int)
	var entryOrder []entryKey
	entryPrefetch := make(map[entryKey]*bool)
	for _, rt := range w.Tasks {
		if _, ok := arrLen[rt.Arr]; !ok {
			arrOrder = append(arrOrder, rt.Arr)
			arrPE[rt.Arr] = make(map[int]int)
		}
		if rt.Idx+1 > arrLen[rt.Arr] {
			arrLen[rt.Arr] = rt.Idx + 1
		}
		arrPE[rt.Arr][rt.Idx] = rt.PE
		k := entryKey{rt.Arr, rt.Entry}
		if entryPrefetch[k] == nil {
			entryOrder = append(entryOrder, k)
			pf := rt.Prefetch
			entryPrefetch[k] = &pf
		}
	}

	tasks := w.Tasks
	mg := env.MG
	fn := func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
		i := msg.Data.(int)
		rt := tasks[i]
		for _, k := range rt.Kernels {
			if k.Gap > 0 {
				p.Sleep(k.Gap)
			}
			mg.RunKernel(p, deps[i], core.KernelSpec{Flops: k.Flops, TrafficScale: k.Scale})
		}
		if rt.TailGap > 0 {
			p.Sleep(rt.TailGap)
		}
	}
	depsFn := func(el *charm.Element, msg *charm.Message) []charm.DataDep {
		return deps[msg.Data.(int)]
	}

	arrays := make(map[string]*charm.Array, len(arrOrder))
	for _, name := range arrOrder {
		peOf := arrPE[name]
		numPEs := w.Meta.NumPEs
		arrays[name] = env.RT.NewArray(name, arrLen[name],
			func(i int) charm.Chare { return struct{}{} },
			func(i int) int {
				if pe, ok := peOf[i]; ok {
					return pe
				}
				return i % numPEs
			})
	}
	entries := make(map[entryKey]*charm.Entry, len(entryOrder))
	for _, k := range entryOrder {
		entries[k] = arrays[k.arr].Register(charm.Entry{
			Name:     k.entry,
			Fn:       fn,
			Prefetch: *entryPrefetch[k],
			Deps:     depsFn,
		})
	}

	env.RT.Main(func(p *sim.Proc) {
		for i, rt := range tasks {
			p.SleepUntil(rt.SentAt)
			arrays[rt.Arr].Send(rt.From, rt.Idx, entries[entryKey{rt.Arr, rt.Entry}], i)
		}
	})
	var v Verdict
	if cfg.AbandonAbove > 0 {
		// RunBefore (not Run) so the clock is never clamped up to the
		// bound on a run that finishes under it: the completed path must
		// report its true makespan.
		env.Eng.RunBefore(cfg.AbandonAbove)
		// Pending work means every pending event sits at or beyond the
		// bound, so the candidate's true makespan is >= AbandonAbove;
		// stop here and let env.Close (deferred) kill the blocked
		// processes.
		v.Abandoned = !env.Eng.Idle()
	} else {
		env.Eng.RunAll()
	}
	v.Makespan = env.Eng.Now()
	if v.Abandoned {
		v.Makespan = cfg.AbandonAbove
	}
	v.Stats = env.MG.Stats
	if rec == nil {
		return v, nil, nil
	}
	rec.Finish()
	return v, rec.Capture(), nil
}
