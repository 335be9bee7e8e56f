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
// arrival times and compute costs. It builds the captured program on a
// manager (Build), so a replay is a run like any other.
type Workload struct {
	Meta    *Meta
	Handles []*HandleDecl
	Tasks   []*RTask

	// largest is the [prefetch] task with the largest dependence set,
	// of largestBytes, or nil when no task prefetches: Build refuses a
	// moving manager whose HBM budget cannot hold it.
	largest      *RTask
	largestBytes int64
}

// Reconstruct extracts the replayable workload from a capture. It
// works on truncated captures as long as the meta event survived;
// tasks whose run events were lost replay as zero-cost sends. A send no
// chare array could take — a negative element index, or a PE outside
// the capture's PE count — makes the capture unreplayable.
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
	// An entry prefetches if its first send did, as Build registers it,
	// and a task's dependences weigh what their handles declare.
	size := make(map[string]int64, len(w.Handles))
	for _, hd := range w.Handles {
		size[hd.Block] = hd.Bytes
	}
	prefetch := make(map[[2]string]bool)
	for _, rt := range w.Tasks {
		k := [2]string{rt.Arr, rt.Entry}
		pf, seen := prefetch[k]
		if !seen {
			pf = rt.Prefetch
			prefetch[k] = pf
		}
		if !pf {
			continue
		}
		var n int64
		for _, d := range rt.Deps {
			n += size[d.Block]
		}
		if w.largest == nil || n > w.largestBytes {
			w.largest, w.largestBytes = rt, n
		}
	}
	for _, rt := range w.Tasks {
		if rt.Idx < 0 {
			return nil, fmt.Errorf("trace: task %d sends to %s[%d], a negative index", rt.ID, rt.Arr, rt.Idx)
		}
		if rt.PE < 0 || rt.PE >= m.NumPEs {
			return nil, fmt.Errorf("trace: task %d places %s[%d] on PE %d, outside the capture's %d PEs",
				rt.ID, rt.Arr, rt.Idx, rt.PE, m.NumPEs)
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

// Build declares the captured program on mg, whose runtime must have
// the capture's PEs: the handles in recorded order, each task's
// dependences, and the chare arrays and entry methods the tasks
// address. The app it returns re-issues every task at its recorded
// send instant, in ID order, so same-instant sends keep their order and
// the real Send path re-applies message latency: under the recorded
// knobs the replayed schedule is the recorded one, byte for byte. An
// entry-method body re-executes the task's recorded kernels through the
// live cost model, with the recorded non-kernel time slept as fixed
// gaps. A capture that names its memory chain is refused on a machine
// with a different one (ErrTierMismatch), and so is a moving manager
// whose HBM budget cannot hold some [prefetch] task's dependences,
// which the manager would refuse to stage.
func (w *Workload) Build(mg *core.Manager) (kernels.App, error) {
	if t := w.largest; t != nil && mg.Mode().Moves() && w.largestBytes > mg.HBMBudget() {
		return nil, fmt.Errorf("trace: task %d (%s[%d].%s) needs %d dep bytes, exceeding the %d-byte HBM budget",
			t.ID, t.Arr, t.Idx, t.Entry, w.largestBytes, mg.HBMBudget())
	}
	rt := mg.Runtime()
	// A fetch recorded from NVM has no meaning on a machine without
	// that tier, and the what-if comparison would silently mix miss
	// costs. Captures from before tier chains (no Tiers field) skip the
	// check.
	if len(w.Meta.Tiers) > 0 {
		var chain []string
		for _, n := range rt.Machine().Chain() {
			chain = append(chain, n.Name)
		}
		if strings.Join(chain, ",") != strings.Join(w.Meta.Tiers, ",") {
			return nil, fmt.Errorf("%w: capture recorded [%s], machine has [%s]",
				ErrTierMismatch, strings.Join(w.Meta.Tiers, " -> "), strings.Join(chain, " -> "))
		}
	}

	handles := make(map[string]*core.Handle, len(w.Handles))
	for _, hd := range w.Handles {
		handles[hd.Block] = mg.NewHandle(hd.Block, hd.Bytes)
	}
	deps := make([][]charm.DataDep, len(w.Tasks))
	for i, t := range w.Tasks {
		for _, d := range t.Deps {
			h, ok := handles[d.Block]
			if !ok {
				return nil, fmt.Errorf("trace: task %d depends on undeclared block %q", t.ID, d.Block)
			}
			mode, err := parseAccessMode(d.Mode)
			if err != nil {
				return nil, err
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
	entryPrefetch := make(map[entryKey]bool)
	for _, t := range w.Tasks {
		if _, ok := arrLen[t.Arr]; !ok {
			arrOrder = append(arrOrder, t.Arr)
			arrPE[t.Arr] = make(map[int]int)
		}
		if t.Idx+1 > arrLen[t.Arr] {
			arrLen[t.Arr] = t.Idx + 1
		}
		arrPE[t.Arr][t.Idx] = t.PE
		k := entryKey{t.Arr, t.Entry}
		if _, ok := entryPrefetch[k]; !ok {
			entryOrder = append(entryOrder, k)
			entryPrefetch[k] = t.Prefetch
		}
	}

	app := &replay{rt: rt, left: len(w.Tasks)}
	fn := func(p *sim.Proc, pe *charm.PE, el *charm.Element, msg *charm.Message) {
		i := msg.Data.(int)
		t := w.Tasks[i]
		for _, k := range t.Kernels {
			if k.Gap > 0 {
				p.Sleep(k.Gap)
			}
			mg.RunKernel(p, deps[i], core.KernelSpec{Flops: k.Flops, TrafficScale: k.Scale})
		}
		if t.TailGap > 0 {
			p.Sleep(t.TailGap)
		}
		app.left--
		if app.left == 0 {
			app.end = p.Now()
		}
	}
	depsFn := func(el *charm.Element, msg *charm.Message) []charm.DataDep {
		return deps[msg.Data.(int)]
	}

	arrays := make(map[string]*charm.Array, len(arrOrder))
	for _, name := range arrOrder {
		peOf := arrPE[name]
		numPEs := rt.NumPEs()
		arrays[name] = rt.NewArray(name, arrLen[name],
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
			Prefetch: entryPrefetch[k],
			Deps:     depsFn,
		})
	}
	// The runtime's main process sends the tasks as one sim.Proc.Drive
	// step: it waits until each task's send instant and sends it, so
	// the process resumes only at its first grant.
	app.send = func(p *sim.Proc) {
		next, armed := 0, false
		p.Drive(func() bool {
			for ; next < len(w.Tasks); next++ {
				t := w.Tasks[next]
				if !armed {
					armed = true
					p.ArmSleepUntil(t.SentAt)
					return false
				}
				armed = false
				arrays[t.Arr].Send(t.From, t.Idx, entries[entryKey{t.Arr, t.Entry}], next)
			}
			return true
		})
	}
	return app, nil
}

// replay is a workload built on a runtime; it is done once every
// task's body has returned.
type replay struct {
	rt   *charm.Runtime
	send func(*sim.Proc) // the runtime's main process: issues the tasks
	left int             // tasks whose body has not returned
	end  sim.Time
}

func (a *replay) Start()               { a.rt.Main(a.send) }
func (a *replay) Done() bool           { return a.left == 0 }
func (a *replay) FinishedAt() sim.Time { return a.end }

// Run starts the replay and drives the engine until it drains.
func (a *replay) Run() (sim.Time, error) {
	a.Start()
	a.rt.Engine().RunAll()
	if !a.Done() {
		return 0, fmt.Errorf("trace: replay stalled with %d tasks unfinished", a.left)
	}
	return a.end, nil
}
