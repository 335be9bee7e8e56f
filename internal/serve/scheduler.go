package serve

import (
	"fmt"
	"slices"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/sim"
)

// Scheduler is the deterministic multi-session core: registry, job
// store, budget ledger, admission queue and the lockstep step loop.
// It is not safe for concurrent use; Server serialises access.
type Scheduler struct {
	cfg    Config
	budget int64 // total grantable HBM bytes

	granted int64 // bytes held by running sessions

	now sim.Time

	tenants     map[string]*tenant
	tenantOrder []string // registration order, the deterministic walk

	kernels map[string]kernel

	sessions []*Session // dense by numeric id
	queue    []*Session // admission FIFO
	running  []*Session // admission order

	lanes *wrr

	// Counters for the aggregate stats endpoint.
	submitted int64
	rejected  int64
	completed int64
	failed    int64
	canceled  int64
	windows   int64
}

// NewScheduler validates the config and builds an empty scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:     cfg,
		budget:  cfg.Spec.HBMCap - cfg.Reserve,
		tenants: make(map[string]*tenant),
		kernels: builtinKernels(),
		lanes:   newWRR(),
	}
	for _, tc := range cfg.Tenants {
		if err := s.AddTenant(tc); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// RegisterKernel adds (or replaces) a named kernel: config turns a
// normalized submission into the configuration that validates, sizes
// and builds the session's app, as the built-ins "stencil", "matmul"
// and "shift" do. A registered kernel reads every spec field.
func (s *Scheduler) RegisterKernel(name string, config func(spec WorkloadSpec, numPEs int) kernels.Workload) {
	s.kernels[name] = kernel{config: config, iterative: true}
}

// AddTenant pre-registers a tenant with an explicit budget and weight.
func (s *Scheduler) AddTenant(tc TenantConfig) error {
	if tc.Name == "" {
		return fmt.Errorf("serve: tenant needs a name")
	}
	if _, ok := s.tenants[tc.Name]; ok {
		return fmt.Errorf("serve: tenant %q already registered", tc.Name)
	}
	if tc.Budget == 0 {
		tc.Budget = s.cfg.DefaultBudget
	}
	if tc.Budget < 0 || tc.Budget > s.budget {
		return fmt.Errorf("serve: tenant %q budget %d outside (0, %d]", tc.Name, tc.Budget, s.budget)
	}
	if tc.Weight == 0 {
		tc.Weight = 1
	}
	if tc.Weight < 0 {
		return fmt.Errorf("serve: tenant %q weight must be positive", tc.Name)
	}
	s.tenants[tc.Name] = &tenant{name: tc.Name, budget: tc.Budget, weight: tc.Weight}
	s.tenantOrder = append(s.tenantOrder, tc.Name)
	return nil
}

// Now returns the shared virtual clock.
func (s *Scheduler) Now() sim.Time { return s.now }

// Active reports whether any session is queued or running.
func (s *Scheduler) Active() bool { return len(s.queue) > 0 || len(s.running) > 0 }

// Budget returns (total grantable, currently granted) HBM bytes.
func (s *Scheduler) Budget() (total, granted int64) { return s.budget, s.granted }

// Sessions returns every session ever submitted, in id order.
func (s *Scheduler) Sessions() []*Session {
	out := make([]*Session, len(s.sessions))
	copy(out, s.sessions)
	return out
}

// Session looks a session up by its public id.
func (s *Scheduler) Session(id string) (*Session, error) {
	for _, sess := range s.sessions {
		if sess.ID == id {
			return sess, nil
		}
	}
	return nil, ErrUnknownSession
}

// tenantFor returns the tenant record, auto-registering first-seen
// names with the default budget and weight 1.
func (s *Scheduler) tenantFor(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name, budget: s.cfg.DefaultBudget, weight: 1}
	s.tenants[name] = t
	s.tenantOrder = append(s.tenantOrder, name)
	return t
}

// normalize resolves the spec's defaults against the machine and
// validates everything the manager would otherwise reject mid-run: the
// fields the kernel does not read, the options, and the kernel's
// configuration, by that configuration's own Validate. The returned
// options are ready for NewManager.
func (s *Scheduler) normalize(spec *WorkloadSpec) (core.Options, kernels.Workload, error) {
	if spec.Tenant == "" {
		return core.Options{}, nil, fmt.Errorf("serve: submission needs a tenant")
	}
	k, ok := s.kernels[spec.Kernel]
	if !ok {
		return core.Options{}, nil, fmt.Errorf("serve: unknown kernel %q", spec.Kernel)
	}
	if !k.iterative && (spec.Iterations != 0 || spec.Sweeps != 0) {
		field := "iterations"
		if spec.Iterations == 0 {
			field = "sweeps"
		}
		return core.Options{}, nil, fmt.Errorf("serve: kernel %s does not read %s", spec.Kernel, field)
	}
	if spec.Strategy == "" {
		spec.Strategy = "multi"
	}
	mode, err := core.ParseMode(spec.Strategy)
	if err != nil || !mode.Moves() {
		return core.Options{}, nil, fmt.Errorf("serve: unknown strategy %q (want single, noio or multi)", spec.Strategy)
	}
	if spec.Footprint == 0 {
		if spec.Reduced == 0 {
			spec.Reduced = s.budget / 8
		}
		spec.Footprint = spec.Reduced + spec.Reduced/2
	}
	if spec.Footprint <= 0 {
		return core.Options{}, nil, fmt.Errorf("serve: footprint must be positive")
	}
	if spec.Reduced == 0 {
		spec.Reduced = spec.Footprint * 2 / 3
	}
	if spec.Bytes == 0 {
		spec.Bytes = 2 * spec.Footprint
	}
	if spec.Bytes < spec.Reduced {
		return core.Options{}, nil, fmt.Errorf("serve: total bytes %d below active set %d", spec.Bytes, spec.Reduced)
	}
	if spec.Bytes > s.cfg.Spec.DDRCap {
		return core.Options{}, nil, fmt.Errorf("serve: total bytes %d exceed far-memory capacity %d", spec.Bytes, s.cfg.Spec.DDRCap)
	}
	if k.iterative && spec.Iterations == 0 {
		spec.Iterations = 2
	}
	if k.iterative && spec.Sweeps == 0 {
		spec.Sweeps = 20
	}
	// The stencil divides the active set across the PEs and the shift
	// program across its 4 chares per PE: round it to 4 PEs' worth.
	spec.Reduced = roundUp(spec.Reduced, int64(4*s.cfg.NumPEs))

	opts := core.DefaultOptions(mode)
	opts.HBMReserve = 0 // the footprint-sized machine IS the budget
	opts.Metrics = true
	opts.Audit = s.cfg.Audit
	opts.IOThreads = spec.IOThreads
	opts.PrefetchDepth = spec.PrefetchDepth
	opts.EvictLazily = spec.EvictLazily
	if spec.EvictPolicy != "" {
		pol, err := core.ParseEvictPolicy(spec.EvictPolicy)
		if err != nil {
			return core.Options{}, nil, fmt.Errorf("serve: %w", err)
		}
		opts.EvictPolicy = pol
	}
	if err := opts.Validate(); err != nil {
		return core.Options{}, nil, fmt.Errorf("serve: options: %w", err)
	}
	cfg := k.config(*spec, s.cfg.NumPEs)
	if err := cfg.Validate(); err != nil {
		return core.Options{}, nil, fmt.Errorf("serve: %s: %w", spec.Kernel, err)
	}
	return opts, cfg, nil
}

// maxBlocks bounds the managed blocks one session may declare. The
// scheduler builds a session's workload synchronously under the server
// lock, so a decomposition into millions of tiny blocks would stall
// every tenant while it is built (and exhaust memory well before). The
// sessions the experiments submit declare a few hundred at most.
const maxBlocks = 1 << 16

// Submit validates a submission, stores it as a Queued session and
// tries immediate admission. Rejections return an error and record no
// session.
func (s *Scheduler) Submit(spec WorkloadSpec) (*Session, error) {
	s.submitted++
	opts, cfg, err := s.normalize(&spec)
	if err != nil {
		s.rejected++
		return nil, err
	}
	ten := s.tenantFor(spec.Tenant)
	// The smallest grant that can make progress (one task's dependence
	// set must fit the session's whole HBM) and the managed blocks the
	// app declares, both read from the configuration that builds it.
	min, blocks := cfg.TaskDepBytes(), int64(cfg.Handles())
	switch {
	case spec.Footprint > ten.budget || spec.Footprint > s.budget:
		err = fmt.Errorf("%w: footprint %d, tenant budget %d, machine budget %d",
			ErrOverBudget, spec.Footprint, ten.budget, s.budget)
	case spec.Footprint < min:
		err = fmt.Errorf("serve: footprint %d cannot hold one task's dependences (%d)", spec.Footprint, min)
	case blocks > maxBlocks:
		err = fmt.Errorf("serve: %s of %d bytes over %d-byte active set decomposes into %d blocks, above %d",
			spec.Kernel, spec.Bytes, spec.Reduced, blocks, maxBlocks)
	case len(s.queue) >= s.cfg.MaxQueue:
		err = ErrQueueFull
	}
	if err != nil {
		s.rejected++
		ten.rejected++
		return nil, err
	}
	id := len(s.sessions)
	sess := &Session{
		id:        id,
		ID:        fmt.Sprintf("s%04d", id),
		Tenant:    spec.Tenant,
		Spec:      spec,
		State:     Queued,
		Arrival:   s.now,
		Footprint: spec.Footprint,
		ten:       ten,
	}
	machine := s.cfg.Spec
	machine.HBMCap = spec.Footprint
	seed := spec.Seed
	if seed == 0 {
		seed = s.cfg.BaseSeed + int64(id)
	}
	sess.run = runner.Run{
		EnvConfig: kernels.EnvConfig{Spec: machine, NumPEs: s.cfg.NumPEs, Opts: opts, Seed: seed},
		App:       cfg,
		Adapt:     runner.Adapt{On: spec.Adapt},
		Record:    spec.Trace,
		Session:   sess.ID,
		Tenant:    spec.Tenant,
	}
	s.sessions = append(s.sessions, sess)
	s.queue = append(s.queue, sess)
	s.admit()
	return sess, nil
}

// admit starts queued sessions while budgets allow. The walk is FIFO;
// a session blocked on the *machine* budget blocks everything behind
// it (no overtaking, so large sessions cannot starve), while a session
// blocked only on its own tenant's budget is skipped (it must not
// block other tenants — that is the point of per-tenant budgets).
func (s *Scheduler) admit() {
	kept := s.queue[:0]
	blocked := false
	for _, sess := range s.queue {
		if blocked {
			kept = append(kept, sess)
			continue
		}
		if sess.Footprint > s.budget-s.granted {
			blocked = true
			kept = append(kept, sess)
			continue
		}
		if sess.Footprint > sess.ten.budget-sess.ten.granted {
			kept = append(kept, sess)
			continue
		}
		s.start(sess)
	}
	s.queue = kept
}

// start grants the budget and brings the session up: its run is built
// (private machine sized to the grant, recorder, app, controller warm
// started from the tenant's last settled verdict) and the app seeded.
// Build errors fail the session (the grant is returned).
func (s *Scheduler) start(sess *Session) {
	sess.ten.granted += sess.Footprint
	sess.ten.running++
	sess.ten.admitted++
	s.granted += sess.Footprint
	sess.State = Running
	sess.Started = s.now
	sess.base = s.now

	r := sess.run
	if r.Adapt.On && sess.ten.warm != nil {
		r.Adapt.Warm = *sess.ten.warm
	}
	live, err := r.Build() // Submit validated the options: live is not nil
	sess.live, sess.rec = live, live.Rec
	if err != nil {
		s.fail(sess, fmt.Sprintf("build %s: %v", sess.Spec.Kernel, err))
		return
	}
	live.App.Start()
	s.running = append(s.running, sess)
}

// release returns the budget grant exactly once.
func (s *Scheduler) release(sess *Session) {
	if sess.released {
		return
	}
	sess.released = true
	sess.ten.granted -= sess.Footprint
	sess.ten.running--
	s.granted -= sess.Footprint
	s.lanes.forget(sess.ID)
}

// terminal moves a running (or just-started) session into a terminal
// state: budget released, metrics, controller verdict and capture
// kept, engine reaped, and the environment, app and controller
// dropped. A panic while the engine unwinds its parked processes is
// added to Err.
func (s *Scheduler) terminal(sess *Session, state State, reason string) {
	sess.State = state
	sess.Err = reason
	sess.Finished = s.now
	s.release(sess)
	live := sess.live
	if snap, ok := live.MG.MetricsSnapshot(); ok {
		snap.Label = sess.ID
		sess.metrics, sess.hasMetric = snap, true
	}
	if sess.rec != nil {
		sess.rec.Finish()
	}
	if live.Ctl != nil {
		v := live.Ctl.Verdict()
		sess.verdict = &v
	}
	if fault := contain(live.Close); fault != "" {
		if sess.Err != "" {
			sess.Err += "; "
		}
		sess.Err += "close: " + fault
	}
	sess.live = nil
}

// fail marks a session Failed.
func (s *Scheduler) fail(sess *Session, reason string) {
	s.failed++
	s.terminal(sess, Failed, reason)
}

// finish completes a session successfully, pinning the finish time to
// the app's recorded completion instant (not the window edge).
func (s *Scheduler) finish(sess *Session) {
	sess.Finished = sess.base + sess.live.App.FinishedAt()
	if r := sess.live.MG.ReservedBytes(); r != 0 {
		s.fail(sess, fmt.Sprintf("reservation leak: %d bytes still reserved at completion", r))
		return
	}
	if s.cfg.Audit {
		if aud := sess.live.MG.Auditor(); aud != nil {
			aud.CheckQuiescent()
			if err := aud.Err(); err != nil {
				s.fail(sess, fmt.Sprintf("audit: %v", err))
				return
			}
		}
	}
	s.completed++
	sess.ten.completed++
	sess.ten.makespans = append(sess.ten.makespans, float64(sess.Finished-sess.Arrival))
	fin := sess.Finished
	s.terminal(sess, Done, "")
	sess.Finished = fin
	if v := sess.verdict; v != nil && v.Converged {
		o := v.Final
		sess.ten.warm = &o
	}
}

// Cancel kills a session. Queued sessions leave the queue with nothing
// to release; running sessions release their grant (exactly once) and
// their engine is reaped mid-flight. Finished sessions are left alone.
func (s *Scheduler) Cancel(id, reason string) (*Session, error) {
	sess, err := s.Session(id)
	if err != nil {
		return nil, err
	}
	switch sess.State {
	case Queued:
		s.queue = slices.DeleteFunc(s.queue, func(q *Session) bool { return q == sess })
		s.canceled++
		sess.State = Canceled
		sess.Err = reason
		sess.Finished = s.now
		return sess, nil
	case Running:
		s.running = slices.DeleteFunc(s.running, func(r *Session) bool { return r == sess })
		s.canceled++
		s.terminal(sess, Canceled, reason)
		return sess, nil
	}
	return sess, ErrFinished
}

// DrainQueue cancels every queued session (graceful shutdown).
func (s *Scheduler) DrainQueue(reason string) int {
	n := len(s.queue)
	for len(s.queue) > 0 {
		_, _ = s.Cancel(s.queue[0].ID, reason)
	}
	return n
}

// assignShares re-divides the staging fabric for the next window.
// Fair: lanes go to tenants by weight (smooth WRR), then split evenly
// across the tenant's running sessions. Unfair: lanes go to sessions
// directly with equal weight — a tenant flooding sessions grabs
// bandwidth in proportion, which is the behaviour the fairness mode
// exists to prevent.
func (s *Scheduler) assignShares() {
	if len(s.running) == 0 {
		return
	}
	var ents []laneEntity
	if s.cfg.Fair {
		for _, name := range s.tenantOrder {
			if t := s.tenants[name]; t.running > 0 {
				ents = append(ents, laneEntity{key: name, weight: t.weight})
			}
		}
	} else {
		for _, sess := range s.running {
			ents = append(ents, laneEntity{key: sess.ID, weight: 1})
		}
	}
	lane, total := s.lanes.assign(ents, s.cfg.Lanes)
	granted := make(map[string]int, len(ents))
	for i, e := range ents {
		granted[e.key] = lane[i]
	}
	for _, sess := range s.running {
		// A fair session shares its tenant's lanes evenly.
		key, sharers := sess.ID, 1
		if s.cfg.Fair {
			key, sharers = sess.Tenant, sess.ten.running
		}
		sess.live.Mach.Alloc.MemcpyRateCap = s.cfg.Spec.MemcpyBW * float64(granted[key]) / float64(total) / float64(sharers)
		if sess.rec != nil {
			sess.rec.LaneAssigned(int(s.windows), granted[key], total, len(s.running))
		}
	}
}

// Step advances the service by one window: admit what fits, re-divide
// the fabric, advance every running session's engine in lockstep, and
// collect completions and deadlocks. It reports whether any session
// remains queued or running.
func (s *Scheduler) Step() bool {
	s.windows++
	s.admit()
	s.assignShares()
	until := s.now + s.cfg.Window

	// Walk a snapshot: finish/fail mutate s.running. A session whose
	// engine panics (a custom kernel's process or event callback, or a
	// model invariant) fails alone; the others keep stepping.
	snap := make([]*Session, len(s.running))
	copy(snap, s.running)
	var done []*Session
	var faults map[*Session]string
	for _, sess := range snap {
		if fault := contain(func() { sess.live.Eng.Run(until - sess.base) }); fault != "" {
			if faults == nil {
				faults = make(map[*Session]string)
			}
			faults[sess] = fault
			done = append(done, sess)
		} else if sess.live.App.Done() || sess.live.Eng.Idle() {
			done = append(done, sess)
		}
	}
	s.now = until
	for _, sess := range done {
		s.running = slices.DeleteFunc(s.running, func(r *Session) bool { return r == sess })
		if fault, ok := faults[sess]; ok {
			s.fail(sess, fault)
		} else if sess.live.App.Done() {
			s.finish(sess)
		} else {
			s.fail(sess, fmt.Sprintf("deadlock: engine idle before completion (blocked: %v)",
				sess.live.Eng.BlockedProcNames()))
		}
	}
	return s.Active()
}

// contain runs fn and returns "panic: <value>" if it panics, or "" if
// it returns: Step and terminal run a session's engine through it, so
// that a fault stays in the session that raised it.
func contain(fn func()) (fault string) {
	defer func() {
		if r := recover(); r != nil {
			fault = fmt.Sprintf("panic: %v", r)
		}
	}()
	fn()
	return ""
}

// RunUntilIdle steps until no session is queued or running, bounded by
// maxWindows (0 means 10 million) as a runaway guard.
func (s *Scheduler) RunUntilIdle(maxWindows int) error {
	if maxWindows <= 0 {
		maxWindows = 10_000_000
	}
	for i := 0; i < maxWindows; i++ {
		if !s.Step() {
			return nil
		}
	}
	return fmt.Errorf("serve: still active after %d windows (queued %d, running %d)",
		maxWindows, len(s.queue), len(s.running))
}

// TenantStat is one tenant's aggregate for the stats endpoint.
type TenantStat struct {
	Name         string  `json:"name"`
	Budget       int64   `json:"budget"`
	Granted      int64   `json:"granted"`
	Weight       int     `json:"weight"`
	Running      int     `json:"running"`
	Admitted     int64   `json:"admitted"`
	Completed    int64   `json:"completed"`
	Rejected     int64   `json:"rejected"`
	MeanMakespan float64 `json:"mean_makespan_s"`
	P99Makespan  float64 `json:"p99_makespan_s"`
}

// Stats is the aggregate service snapshot.
type Stats struct {
	VirtualNow float64      `json:"virtual_now_s"`
	Windows    int64        `json:"windows"`
	Budget     int64        `json:"budget"`
	Granted    int64        `json:"granted"`
	Queued     int          `json:"queued"`
	Running    int          `json:"running"`
	Submitted  int64        `json:"submitted"`
	Rejected   int64        `json:"rejected"`
	Completed  int64        `json:"completed"`
	Failed     int64        `json:"failed"`
	Canceled   int64        `json:"canceled"`
	Fair       bool         `json:"fair"`
	Lanes      int          `json:"lanes"`
	Tenants    []TenantStat `json:"tenants"`
}

// StatsSnapshot assembles the aggregate stats (tenants in
// registration order — never map order).
func (s *Scheduler) StatsSnapshot() Stats {
	st := Stats{
		VirtualNow: float64(s.now),
		Windows:    s.windows,
		Budget:     s.budget,
		Granted:    s.granted,
		Queued:     len(s.queue),
		Running:    len(s.running),
		Submitted:  s.submitted,
		Rejected:   s.rejected,
		Completed:  s.completed,
		Failed:     s.failed,
		Canceled:   s.canceled,
		Fair:       s.cfg.Fair,
		Lanes:      s.cfg.Lanes,
	}
	for _, name := range s.tenantOrder {
		t := s.tenants[name]
		ts := TenantStat{
			Name: t.name, Budget: t.budget, Granted: t.granted,
			Weight: t.weight, Running: t.running, Admitted: t.admitted,
			Completed: t.completed, Rejected: t.rejected,
		}
		if len(t.makespans) > 0 {
			var sum float64
			for _, m := range t.makespans {
				sum += m
			}
			ts.MeanMakespan = sum / float64(len(t.makespans))
			ts.P99Makespan = Percentile(t.makespans, 0.99)
		}
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

// Percentile returns the q-quantile (0<q<=1) of the samples by the
// nearest-rank method on a sorted copy; deterministic for any input
// order.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int(q*float64(len(sorted))+0.9999999) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}
