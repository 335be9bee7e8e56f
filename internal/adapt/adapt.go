// Package adapt implements an online adaptive controller that tunes
// the OOC manager's strategy knobs from runtime feedback — the loop the
// paper leaves open when it remarks that "a more optimal number of IO
// threads" exists, plans a memory-pool eviction optimisation, and asks
// "when to prefetch" without choosing values. The X3/X4/X6 ablations
// show those optima shift with workload shape; the controller finds
// them per run instead of per offline sweep.
//
// A Controller attaches to the runtime's event stream and samples a
// Feedback struct at window boundaries: per-category worker-lane time
// shares (compute/wait/fetch/evict) summed from the stream's spans, the
// HBM high-water mark from the audit metrics collector (split out of the
// invariant auditor so feedback costs no audit overhead), and
// retry/forced-eviction/refetch deltas from the manager's Stats.
// New picks the windows from the application it steers:
//
//   - an application with iteration barriers (the stencil and shift
//     programs) closes one at each barrier but the last — the
//     quiescent points where even whole-strategy switches are legal;
//   - any other (MatMul's single reduction, a registered kernel)
//     closes one every NumPEs task completions (the stream's task-done
//     events).
//
// Policies, in the order they engage:
//
//  1. Strategy switch: while SingleIO's wait share (or NoIO's
//     fetch+evict share) stays >= waitDominant (0.35) for
//     switchWindows (2) consecutive windows, switch to MultiIO at the
//     next barrier (Manager.Retune refuses the switch outside
//     quiescence), at most maxModeSwitches (1) times per run.
//  2. Knob hill-climb: IOThreads (SingleIO) or PrefetchDepth (MultiIO)
//     move along a power-of-two ladder; a probe step is kept only if
//     the window score (virtual seconds per completed task) improves by
//     epsilon (3%), otherwise it is reverted. After the climb settles
//     it stays settled — short runs need convergence, not exploration.
//  3. Eviction policy, by pressure threshold: when cumulative HBM
//     pressure sits below pressureHi (0.9) and the window saw no capacity
//     retries or forced evictions, lazy eviction (the paper's planned
//     memory-pool optimisation) is adopted outright — deferring
//     evictions is free while capacity is uncontended, and score
//     probes cannot judge it (its payoff is cumulative and program
//     phases confound single-window comparisons). If retries or
//     forced evictions later appear under lazy mode, the controller
//     reverts to eager immediately.
//
// Determinism: the controller runs in virtual time, samples only at
// deterministic points, and breaks its single heuristic tie (initial
// probe direction from mid-ladder) with an RNG of fixed seed — two runs
// of the same workload take identical decisions, which the determinism
// regression tests assert.
//
// The thresholds and the sampling rule are fixed; a Config sets only
// an optional warm start.
package adapt

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// Config parameterises a Controller.
type Config struct {
	// Warm seeds the controller with a recommended configuration (an
	// offline tune verdict, or a settled verdict from an earlier
	// session). New applies the retunable knobs — Mode, IOThreads,
	// PrefetchDepth, EvictLazily, EvictPolicy — before the run starts,
	// and the controller settles at the first post-warmup window
	// instead of probing from scratch. The settled-phase guard stays
	// armed: a mid-run shift that invalidates the warm verdict reopens
	// a full climb, exactly as it would for a settled cold start.
	// Non-retunable fields (HBMReserve, SharedWaitQueue, Audit,
	// Metrics) are ignored — they belong to the run, not the
	// recommendation.
	Warm *core.Options
}

// The controller's policy constants.
const (
	// seed feeds the decision RNG.
	seed = 1
	// warmupWindows are observed but trigger no tuning: the first
	// window carries cold-start fetches.
	warmupWindows = 1
	// switchWindows is how many consecutive wait-dominant windows
	// trigger a strategy switch.
	switchWindows = 2
	// waitDominant is the wait-share threshold for the switch rule.
	waitDominant = 0.35
	// epsilon is the relative score improvement a probe must deliver
	// to be kept.
	epsilon = 0.03
	// pressureHi gates the lazy-eviction probe: cumulative HBM
	// high-water above this fraction of the budget means capacity is
	// contended and eager eviction stands.
	pressureHi = 0.9
	// lowWait is the wait share below which the knob climb does not
	// even probe: with workers never starved and no capacity retries,
	// the current transfer aggressiveness is already sufficient and a
	// probe window is pure disturbance.
	lowWait = 0.05
	// maxIOThreads caps the SingleIO thread ladder; the ladder never
	// goes above the PE count either.
	maxIOThreads = 8
	// maxPrefetchDepth caps the bounded rungs of the MultiIO depth
	// ladder; the ladder always ends at 0 = unlimited.
	maxPrefetchDepth = 8
	// maxModeSwitches bounds strategy switches per run, so the
	// controller converges instead of oscillating.
	maxModeSwitches = 1
	// reopenFactor is the relative score degradation versus the
	// settled baseline that, sustained for two consecutive windows,
	// makes the settled-phase guard re-open the climb — a mid-run
	// working-set shift invalidates the settled verdicts (0.5, i.e.
	// 50% slower per task).
	reopenFactor = 0.5
)

// Feedback is one sampled window of runtime signals: time shares over
// the worker lanes (IO-thread lanes excluded — their fetch time is the
// overlap the strategies exist to create) and counter deltas from the
// metrics collector.
type Feedback struct {
	Window  int     `json:"window"`
	Time    float64 `json:"time_s"`
	Elapsed float64 `json:"elapsed_s"`
	Tasks   int64   `json:"tasks"`

	ComputeShare float64 `json:"compute_share"`
	WaitShare    float64 `json:"wait_share"` // idle + lock wait
	FetchShare   float64 `json:"fetch_share"`
	EvictShare   float64 `json:"evict_share"`

	// Pressure is the cumulative HBM high-water mark as a fraction of
	// the budget.
	Pressure        float64 `json:"pressure"`
	StageRetries    int64   `json:"stage_retries"`    // delta this window
	ForcedEvictions int64   `json:"forced_evictions"` // delta this window
	Refetches       int64   `json:"refetches"`        // delta this window
}

// Decision is one controller action, stamped with the feedback that
// drove it — the convergence trace the X9 driver prints.
type Decision struct {
	Window   int      `json:"window"`
	Time     float64  `json:"time_s"`
	Action   string   `json:"action"`
	Feedback Feedback `json:"feedback"`
}

func (d Decision) String() string {
	return fmt.Sprintf("w%d[t=%.3f] %s", d.Window, d.Time, d.Action)
}

// climb phases.
const (
	pWarm = iota
	pBase
	pProbe
	pSettled
)

// Controller closes the feedback loop for one manager. It is a
// charm.Sink on the runtime's event stream, where New attaches it.
type Controller struct {
	mg  *core.Manager
	eng *sim.Engine
	met *audit.Metrics
	cfg Config
	rng *rand.Rand

	numPEs int
	budget int64
	// every closes a window every that many task completions; 0 for an
	// application sampled at its barriers.
	every int64

	// lanes holds each worker lane's span time, summed per category in
	// the order spans close: the same additions, in the same order, as
	// summarising a Projections span log of the run.
	lanes []laneTime

	// window accounting
	window    int
	tasks     int64 // completions since start
	lastTasks int64
	lastTime  float64
	lastCat   [int(numShareCats)]float64
	// lastRetries, lastForced and lastRefetches are the manager's Stats
	// at the previous window.
	lastRetries, lastForced, lastRefetches int64

	// policy state
	phase        int
	warmLeft     int
	waitRuns     int
	modeSwitches int

	ladder   []int // knob values, "more aggressive" last
	idx      int   // current rung
	knobBase float64
	dir      int  // active probe direction
	moved    bool // accepted at least one step in dir
	triedUp  bool
	triedDn  bool

	// warmPending marks a warm-started controller that has not settled
	// yet: the first post-warmup window adopts the warm verdict as its
	// baseline and settles outright. Cleared on first settle, so a
	// guard-triggered reopen climbs normally — the shift proved the
	// warm verdict stale.
	warmPending bool

	settledAt int // window the climb settled, -1 while running
	// settledTime is the virtual time of the first settle — the
	// time-to-settle metric X15 compares across warm and cold starts.
	// -1 until the controller first settles.
	settledTime float64
	// shift detector state (settled-phase guard)
	settledScore float64 // knob baseline captured at settle time
	shiftRuns    int     // consecutive windows past the reopen bar
	reopens      int     // times the guard re-opened the climb
	reopenAt     int     // window of the last reopen, -1 if never

	trace []Decision
}

// laneTime is one worker lane's span time per category. Idle and lock
// wait stay apart: the wait share adds them per lane, as a span-log
// summary does.
type laneTime struct {
	compute, idle, lock, fetch, evict float64
}

// share categories tracked per window (indices into lastCat).
const (
	sCompute = iota
	sWait
	sFetch
	sEvict
	numShareCats
)

// barriered is an application with iteration barriers: the kernels
// stencil and shift programs.
type barriered interface{ AtBarrier(fn func()) }

// New builds a controller that steers app through its manager mg and
// attaches it to the runtime's event stream: build it after the
// application and before the run starts. An application with
// iteration barriers is sampled at each barrier but the last, any other
// every NumPEs task completions. The manager must run a movement
// strategy and carry a metrics collector (Options.Metrics or Audit),
// the source of the HBM high-water mark.
func New(mg *core.Manager, app any, cfg Config) (*Controller, error) {
	if !mg.Mode().Moves() {
		return nil, fmt.Errorf("adapt: mode %v moves no data; nothing to tune", mg.Mode())
	}
	if mg.Metrics() == nil {
		return nil, fmt.Errorf("adapt: manager has no metrics collector (set Options.Metrics)")
	}
	c := &Controller{
		mg:          mg,
		eng:         mg.Runtime().Engine(),
		met:         mg.Metrics(),
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		numPEs:      mg.Runtime().NumPEs(),
		budget:      mg.HBMBudget(),
		lanes:       make([]laneTime, mg.Runtime().NumPEs()),
		phase:       pWarm,
		warmLeft:    warmupWindows,
		settledAt:   -1,
		settledTime: -1,
		reopenAt:    -1,
	}
	if cfg.Warm != nil {
		// Overlay only the retunable knobs onto the run's own options,
		// so a recommendation computed under different HBMReserve /
		// Audit / Metrics settings cannot trip Retune's invariants.
		o := mg.Options()
		o.Mode = cfg.Warm.Mode
		o.IOThreads = cfg.Warm.IOThreads
		o.PrefetchDepth = cfg.Warm.PrefetchDepth
		o.EvictLazily = cfg.Warm.EvictLazily
		o.EvictPolicy = cfg.Warm.EvictPolicy
		if err := mg.Retune(o); err != nil {
			return nil, fmt.Errorf("adapt: warm start: %w", err)
		}
		c.warmPending = true
	}
	c.buildLadder()
	if b, ok := app.(barriered); ok {
		b.AtBarrier(func() { c.sample(true) })
	} else {
		c.every = int64(c.numPEs)
	}
	mg.Runtime().Attach(c)
	return c, nil
}

// Observe implements charm.Sink: add each closing worker-lane span to
// its lane's sums and count completions, closing a window every
// c.every of them for an application without barriers.
func (c *Controller) Observe(e charm.Event) {
	if e.Kind == charm.EvTaskDone {
		c.tasks++
		if c.every > 0 && c.tasks%c.every == 0 {
			c.sample(false)
		}
		return
	}
	if e.Lane >= len(c.lanes) {
		return // an IO-thread lane
	}
	l, d := &c.lanes[e.Lane], c.eng.Now()-e.Start
	switch e.Kind {
	case charm.EvRunEnd:
		l.compute += d
	case charm.EvIdle:
		l.idle += d
	case charm.EvLockWait:
		l.lock += d
	case charm.EvFetchEnd:
		l.fetch += d
	case charm.EvEvict:
		l.evict += d
	}
}

// Verdict is where a controller stands, by value: it keeps nothing of
// the run.
type Verdict struct {
	// Final is the manager's current (tuned) option set.
	Final core.Options
	// Trace is a copy of the decisions taken so far.
	Trace []Decision
	// Converged reports whether the climb has settled, WarmStarted
	// whether the controller was seeded with Config.Warm.
	Converged, WarmStarted bool
	// ConvergedWindow is the window at which the climb settled and
	// ReopenWindow that of the most recent reopen, each -1 if never.
	ConvergedWindow, ReopenWindow int
	// SettledTime is the virtual time at which the controller first
	// settled — the time-to-settle X15 compares between warm and cold
	// starts — or -1 if it never settled.
	SettledTime float64
	// Reopens counts the times the settled-phase guard re-opened the
	// climb (mid-run workload shifts detected).
	Reopens int
}

// Verdict returns where the controller stands now.
func (c *Controller) Verdict() Verdict {
	return Verdict{
		Final: c.mg.Options(), Trace: append([]Decision(nil), c.trace...),
		Converged: c.phase == pSettled, WarmStarted: c.cfg.Warm != nil,
		ConvergedWindow: c.settledAt, ReopenWindow: c.reopenAt,
		SettledTime: c.settledTime, Reopens: c.reopens,
	}
}

// TraceString renders the decision trace compactly, one action per
// line.
func (c *Controller) TraceString() string {
	var b strings.Builder
	for _, d := range c.trace {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// buildLadder sets the knob ladder for the current mode and positions
// idx at the current knob value.
func (c *Controller) buildLadder() {
	c.ladder = nil
	c.dir = 0
	c.moved = false
	c.triedUp = false
	c.triedDn = false
	opts := c.mg.Options()
	switch opts.Mode {
	case core.SingleIO:
		for v := 1; v <= min(maxIOThreads, c.numPEs); v *= 2 {
			c.ladder = append(c.ladder, v)
		}
		cur := opts.IOThreads
		if cur <= 0 {
			cur = 1
		}
		c.idx = nearestRung(c.ladder, cur)
	case core.MultiIO:
		for v := 1; v <= maxPrefetchDepth; v *= 2 {
			c.ladder = append(c.ladder, v)
		}
		c.ladder = append(c.ladder, 0) // unlimited: the most aggressive rung
		if opts.PrefetchDepth == 0 {
			c.idx = len(c.ladder) - 1
		} else {
			c.idx = nearestRung(c.ladder[:len(c.ladder)-1], opts.PrefetchDepth)
		}
	default: // NoIO has no ladder knob
		c.idx = 0
	}
}

// nearestRung returns the index of the closest ladder value.
func nearestRung(ladder []int, v int) int {
	best, bestDist := 0, 1<<62
	for i, r := range ladder {
		d := r - v
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// applyKnob retunes the mode's ladder knob to the value at rung i.
func (c *Controller) applyKnob(i int) error {
	o := c.mg.Options()
	switch o.Mode {
	case core.SingleIO:
		o.IOThreads = c.ladder[i]
	case core.MultiIO:
		o.PrefetchDepth = c.ladder[i]
	default:
		return nil
	}
	return c.mg.Retune(o)
}

// applyEvict retunes the eviction policy.
func (c *Controller) applyEvict(lazy bool) error {
	o := c.mg.Options()
	o.EvictLazily = lazy
	return c.mg.Retune(o)
}

// knobName names the active ladder knob for trace actions.
func (c *Controller) knobName() string {
	if c.mg.Mode() == core.SingleIO {
		return "io-threads"
	}
	return "prefetch-depth"
}

// record appends a decision.
func (c *Controller) record(f Feedback, format string, args ...interface{}) {
	d := Decision{
		Window:   f.Window,
		Time:     f.Time,
		Action:   fmt.Sprintf(format, args...),
		Feedback: f,
	}
	c.trace = append(c.trace, d)
	if rt := c.mg.Runtime(); rt.Observed() {
		rt.Emit(charm.Event{Kind: charm.EvDecision, N: d.Window, Name: d.Action})
	}
}

// sample closes the current window: compute feedback, then run the
// policy. atBarrier marks quiescent windows where strategy switches are
// legal.
func (c *Controller) sample(atBarrier bool) {
	f, ok := c.feedback()
	if !ok {
		return
	}
	c.window++
	f.Window = c.window

	// Score: virtual seconds per completed task, lower is better. At
	// iteration barriers every window holds one iteration of identical
	// work, so this is the per-iteration time; in completion sampling
	// the task count per window is fixed by construction.
	score := f.Elapsed / float64(f.Tasks)

	// The strategy watch runs in every phase — a wrong strategy choice
	// dominates any knob setting, so it may preempt a climb in progress
	// (the climb restarts under the new strategy) or reopen a settled
	// one.
	if c.modeWatch(f, atBarrier) {
		return
	}

	// The victim watch also runs in every post-warmup phase: forced
	// evictions say the victim order is wrong regardless of where the
	// climb stands, and the fix needs no score window to judge.
	c.victimWatch(f)

	switch c.phase {
	case pWarm:
		c.warmLeft--
		c.record(f, "warmup (wait %.2f fetch %.2f pressure %.2f)", f.WaitShare, f.FetchShare, f.Pressure)
		if c.warmLeft <= 0 {
			c.phase = pBase
		}
	case pBase:
		c.knobBase = score
		if c.warmPending {
			// Warm start: adopt the recommended config as the settled
			// verdict without spending probe windows. The settled-phase
			// guard takes over from here — a shift that invalidates the
			// recommendation reopens a normal climb.
			c.record(f, "warm-adopt %s=%d score %.4g (wait %.2f)", c.knobName(), c.knob(), score, f.WaitShare)
			c.settle(f)
			return
		}
		c.record(f, "baseline %s=%d score %.4g (wait %.2f)", c.knobName(), c.knob(), score, f.WaitShare)
		c.startProbe(f)
	case pProbe:
		c.stepProbe(f, score)
	case pSettled:
		c.settledGuard(f, score)
	}
}

// victimWatch upgrades the eviction victim policy when capacity
// pressure forces the eviction of blocks queued tasks still need:
// forced evictions mean declaration order is picking wrong victims,
// and Lookahead is the policy that consults the queues. A one-way
// ratchet per run — the upgrade never costs anything a downgrade would
// win back, so no probe window is spent judging it.
func (c *Controller) victimWatch(f Feedback) {
	if c.phase == pWarm || f.ForcedEvictions == 0 {
		return
	}
	o := c.mg.Options()
	if o.EvictPolicy == core.Lookahead {
		return
	}
	o.EvictPolicy = core.Lookahead
	if err := c.mg.Retune(o); err == nil {
		c.record(f, "victim-upgrade evict-policy=lookahead (forced %d refetches %d)",
			f.ForcedEvictions, f.Refetches)
	}
}

// knob returns the current ladder value (for traces).
func (c *Controller) knob() int {
	if len(c.ladder) == 0 {
		return 0
	}
	return c.ladder[c.idx]
}

// modeWatch runs the strategy-switch rule; reports true when a switch
// happened (the window is consumed by it).
func (c *Controller) modeWatch(f Feedback, atBarrier bool) bool {
	if c.modeSwitches >= maxModeSwitches {
		return false
	}
	mode := c.mg.Mode()
	var signal float64
	switch mode {
	case core.SingleIO:
		// Workers starved behind one IO thread show up as idle time.
		signal = f.WaitShare
	case core.NoIO:
		// Workers moving their own data show up as on-lane fetch/evict.
		signal = f.FetchShare + f.EvictShare
	default:
		return false
	}
	if signal < waitDominant {
		c.waitRuns = 0
		return false
	}
	c.waitRuns++
	if c.waitRuns < switchWindows || !atBarrier {
		return false
	}
	o := c.mg.Options()
	o.Mode = core.MultiIO
	o.IOThreads = 0
	o.PrefetchDepth = 0
	if err := c.mg.Retune(o); err != nil {
		// Not quiescent after all; keep watching.
		c.record(f, "switch %v->multi refused: %v", mode, err)
		return false
	}
	c.modeSwitches++
	c.waitRuns = 0
	c.record(f, "switch %v->MultiIO (signal %.2f for %d windows)", mode, signal, switchWindows)
	// Re-warm under the new strategy, then climb its ladder; the new
	// strategy makes its own eviction decision when it settles.
	c.buildLadder()
	c.phase = pWarm
	c.warmLeft = 1
	return true
}

// startProbe launches the first knob probe from the baseline rung, or
// falls through to the eviction probe / settles when there is nothing
// to climb.
func (c *Controller) startProbe(f Feedback) {
	if f.WaitShare < lowWait && f.StageRetries == 0 {
		// Workers are never starved and staging never hit capacity:
		// there is no transfer bottleneck for the knob to fix, so a
		// probe window would be pure disturbance.
		c.record(f, "keep %s=%d (wait %.2f, no bottleneck)", c.knobName(), c.knob(), f.WaitShare)
		c.startEvictOrSettle(f)
		return
	}
	up := c.idx+1 < len(c.ladder)
	down := c.idx > 0
	switch {
	case up && down:
		// Mid-ladder with no gradient yet: seeded tie-break.
		if c.rng.Intn(2) == 0 {
			c.dir = 1
		} else {
			c.dir = -1
		}
	case up:
		c.dir = 1
	case down:
		c.dir = -1
	default:
		c.startEvictOrSettle(f)
		return
	}
	c.probeStep(f)
}

// probeStep applies the next rung in c.dir.
func (c *Controller) probeStep(f Feedback) {
	if c.dir > 0 {
		c.triedUp = true
	} else {
		c.triedDn = true
	}
	next := c.idx + c.dir
	if err := c.applyKnob(next); err != nil {
		c.record(f, "probe %s=%d refused: %v", c.knobName(), c.ladder[next], err)
		c.startEvictOrSettle(f)
		return
	}
	c.record(f, "probe %s=%d", c.knobName(), c.ladder[next])
	c.phase = pProbe
}

// stepProbe scores an active knob probe.
func (c *Controller) stepProbe(f Feedback, score float64) {
	next := c.idx + c.dir
	if score <= c.knobBase*(1-epsilon) {
		// Keep the step and continue climbing the same way.
		c.idx = next
		c.knobBase = score
		c.moved = true
		c.record(f, "accept %s=%d score %.4g (wait %.2f)", c.knobName(), c.ladder[c.idx], score, f.WaitShare)
		if c.idx+c.dir >= 0 && c.idx+c.dir < len(c.ladder) {
			c.probeStep(f)
			return
		}
		c.startEvictOrSettle(f)
		return
	}
	// No improvement: revert.
	if err := c.applyKnob(c.idx); err != nil {
		c.record(f, "revert %s=%d refused: %v", c.knobName(), c.ladder[c.idx], err)
	} else {
		c.record(f, "revert %s=%d (score %.4g vs %.4g)", c.knobName(), c.ladder[c.idx], score, c.knobBase)
	}
	other := -c.dir
	tried := c.triedUp
	if other < 0 {
		tried = c.triedDn
	}
	if !c.moved && !tried && c.idx+other >= 0 && c.idx+other < len(c.ladder) {
		c.dir = other
		c.probeStep(f)
		return
	}
	c.startEvictOrSettle(f)
}

// startEvictOrSettle applies the pressure-threshold eviction policy,
// then settles. Lazy eviction is adopted outright — not score-probed —
// when capacity is demonstrably uncontended: deferring evictions then
// strictly removes work from the critical path, while its cumulative
// payoff and program-phase noise make a single probe window a
// misleading judge. The settled-phase guard reverts it the moment
// contention appears.
func (c *Controller) startEvictOrSettle(f Feedback) {
	o := c.mg.Options()
	if !o.EvictLazily && f.Pressure < pressureHi &&
		f.StageRetries == 0 && f.ForcedEvictions == 0 {
		if err := c.applyEvict(true); err == nil {
			c.record(f, "adopt evict=lazy (pressure %.2f < %.2f)", f.Pressure, pressureHi)
		}
	}
	c.settle(f)
}

// settle ends the climb, capturing the score baseline the settled-phase
// shift detector compares against.
func (c *Controller) settle(f Feedback) {
	c.phase = pSettled
	c.settledAt = f.Window
	if c.settledTime < 0 {
		c.settledTime = f.Time
	}
	c.warmPending = false
	c.settledScore = c.knobBase
	c.shiftRuns = 0
	o := c.mg.Options()
	victim := "decl"
	if o.EvictPolicy != nil {
		victim = o.EvictPolicy.Name()
	}
	c.record(f, "settled: mode=%v io=%d depth=%d lazy=%v victim=%s",
		o.Mode, o.IOThreads, o.PrefetchDepth, o.EvictLazily, victim)
}

// settledGuard keeps two runtime safety valves after settling. Lazy
// eviction that starts thrashing (capacity retries or forced evictions)
// reverts to eager immediately. And a sustained score collapse — the
// per-task score degrading past reopenFactor versus the settled
// baseline for two consecutive windows, each carrying fresh capacity
// contention — means the working set shifted under the settled
// verdicts (X10's scenario), so the guard re-opens the climb: back to
// pBase, re-baseline, re-probe. The contention requirement keeps
// workload-shape noise (a parallel tail draining, uneven task weights)
// from reopening a climb that capacity knobs could not improve anyway.
func (c *Controller) settledGuard(f Feedback, score float64) {
	if c.mg.Options().EvictLazily && (f.StageRetries > 0 || f.ForcedEvictions > 0) {
		if err := c.applyEvict(false); err == nil {
			c.record(f, "pressure-revert evict=eager (retries %d forced %d)", f.StageRetries, f.ForcedEvictions)
		}
	}
	contended := f.StageRetries > 0 || f.ForcedEvictions > 0
	if c.settledScore <= 0 || !contended || score <= c.settledScore*(1+reopenFactor) {
		c.shiftRuns = 0
		return
	}
	c.shiftRuns++
	if c.shiftRuns < 2 {
		return
	}
	c.shiftRuns = 0
	c.reopens++
	c.reopenAt = f.Window
	c.settledAt = -1
	c.record(f, "reopen climb (score %.4g vs settled %.4g, retries %d forced %d)",
		score, c.settledScore, f.StageRetries, f.ForcedEvictions)
	c.buildLadder()
	c.phase = pBase
}

// feedback computes the window's Feedback; ok is false when the window
// is empty (no time passed or no task finished).
func (c *Controller) feedback() (Feedback, bool) {
	now := c.eng.Now()
	elapsed := now - c.lastTime
	tasks := c.tasks - c.lastTasks
	if elapsed <= 0 || tasks <= 0 {
		return Feedback{}, false
	}

	// Sum the lanes in lane order: idle and lock wait fold into one
	// float slot, so the addition order must be fixed.
	var cat [int(numShareCats)]float64
	for i := range c.lanes {
		l := &c.lanes[i]
		cat[sCompute] += l.compute
		cat[sWait] += l.idle + l.lock
		cat[sFetch] += l.fetch
		cat[sEvict] += l.evict
	}
	st := &c.mg.Stats

	denom := elapsed * float64(c.numPEs)
	f := Feedback{
		Time:            now,
		Elapsed:         elapsed,
		Tasks:           tasks,
		ComputeShare:    (cat[sCompute] - c.lastCat[sCompute]) / denom,
		WaitShare:       (cat[sWait] - c.lastCat[sWait]) / denom,
		FetchShare:      (cat[sFetch] - c.lastCat[sFetch]) / denom,
		EvictShare:      (cat[sEvict] - c.lastCat[sEvict]) / denom,
		Pressure:        float64(c.met.HBMHighWater()) / float64(c.budget),
		StageRetries:    st.StageRetries - c.lastRetries,
		ForcedEvictions: st.ForcedEvictions - c.lastForced,
		Refetches:       st.Refetches - c.lastRefetches,
	}
	c.lastTime = now
	c.lastTasks = c.tasks
	c.lastCat = cat
	c.lastRetries, c.lastForced, c.lastRefetches = st.StageRetries, st.ForcedEvictions, st.Refetches
	return f, true
}
