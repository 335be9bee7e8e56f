package core

import (
	"errors"
	"fmt"

	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/numa"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Mode selects the evaluation configuration for data placement and
// movement, matching the bars of Figures 8 and 9.
type Mode int

const (
	// DDROnly places every block in DDR4 and never moves data (the
	// "DDR4only" bar of Fig. 9).
	DDROnly Mode = iota
	// Baseline is the paper's Naive scheme: fill HBM at allocation
	// time (numa_alloc_onnode with preferred-HBM placement), overflow
	// to DDR4, never move data.
	Baseline
	// SingleIO stages tasks through per-PE wait queues served by one
	// IO thread.
	SingleIO
	// NoIO has workers fetch and evict their own dependences
	// synchronously in pre-/post-processing.
	NoIO
	// MultiIO runs one asynchronous IO thread per PE (on the SMT
	// sibling hyperthread), overlapping fetch/evict with compute.
	MultiIO
)

// String names the mode as the paper's figure legends do.
func (m Mode) String() string {
	switch m {
	case DDROnly:
		return "DDR4only"
	case Baseline:
		return "Naive"
	case SingleIO:
		return "Single IO thread"
	case NoIO:
		return "No IO thread"
	case MultiIO:
		return "Multiple IO threads"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Moves reports whether the mode performs prefetch/eviction.
func (m Mode) Moves() bool { return m == SingleIO || m == NoIO || m == MultiIO }

// modeNames are the short strategy names every flag and the hetmemd
// API accept, indexed by Mode.
var modeNames = [...]string{DDROnly: "ddr4only", Baseline: "naive", SingleIO: "single", NoIO: "noio", MultiIO: "multi"}

// ParseMode resolves a strategy short name from a flag value or a
// submission: ddr4only, naive, single, noio or multi.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want ddr4only, naive, single, noio or multi)", name)
}

// Options configure a Manager.
type Options struct {
	// Mode is the placement/movement configuration.
	Mode Mode
	// HBMReserve is HBM headroom never used for data blocks. The
	// paper's Baseline "allocates close to 15GB or more on HBM ...
	// ensuring we do not over-subscribe"; movement strategies keep
	// the same headroom so "HBM full" means the same thing everywhere.
	HBMReserve int64
	// EvictLazily keeps dead blocks in HBM until space is needed (the
	// paper's planned memory-pool optimisation; used by the eviction
	// ablation). The paper's own strategies evict eagerly.
	EvictLazily bool
	// IOThreads overrides the IO thread count for SingleIO (ablation
	// X3 sweeps 1..N threads round-robining over all wait queues).
	// Zero means the mode's natural count.
	IOThreads int
	// SharedWaitQueue collapses the per-PE wait queues into one global
	// queue (ablation X2: the load-imbalance configuration the paper
	// argues against). Only meaningful for SingleIO.
	SharedWaitQueue bool
	// EvictPolicy orders eviction victims when capacity must be
	// reclaimed (makeRoom): DeclOrder (default), LRU or Lookahead.
	// Read dynamically at each reclaim, so Retune can switch it
	// online. Nil means DeclOrder.
	EvictPolicy EvictPolicy
	// PrefetchDepth bounds how many tasks per PE may be staged (in
	// the run queue or executing) at once under MultiIO; 0 means
	// unlimited, i.e. prefetch as far ahead as HBM capacity allows —
	// the paper's behaviour. The X6 ablation sweeps this to show the
	// overlap-vs-capacity-pressure trade-off of §IV-D ("when to
	// prefetch").
	PrefetchDepth int
	// Audit enables the invariant-audit layer (internal/audit):
	// conservation checks on every accounting change, a quiescence
	// watchdog that reports silent stalls, and structured snapshots via
	// AuditSnapshot. Audit implies Metrics.
	Audit bool
	// Metrics enables the cheap metrics collector alone (duration
	// histograms, the per-policy split and the pressure, queue-depth and
	// inflight peaks; the adaptive controller samples the HBM
	// high-water mark) without the auditor's shadow ledger and per-event
	// invariant checks.
	Metrics bool
}

// DefaultOptions returns the paper-faithful configuration for a mode.
func DefaultOptions(mode Mode) Options {
	return Options{Mode: mode, HBMReserve: 1 * topology.GB}
}

// Manager owns the managed handles, the HBM budget and the scheduling
// strategy; it implements charm.Interceptor.
type Manager struct {
	rt    *charm.Runtime
	mach  *topology.Machine
	opts  Options
	strat strategy

	// tiers is the machine's memory chain cached near-to-far: tiers[0]
	// is HBM, tiers[len-1] the capacity backstop blocks are born on.
	// Resolved by kind rank, never by node ID, so spec order cannot
	// swap near and far memory.
	tiers []*memsim.Node

	handles []*Handle

	// dead indexes the dead resident blocks (InHBM, unreferenced,
	// unclaimed), one bit per handle id, so makeRoom reads its
	// candidates in declaration order without scanning the handle
	// table. reindex keeps it current.
	dead []uint64
	// spareVictims holds idle makeRoom pass storage; waking lists the
	// first passes under way, which useDone tells when a block's last
	// pending use completes.
	spareVictims []*victims
	waking       []*victims
	room         RoomStats

	// reserved protects HBM capacity promised to staging tasks whose
	// fetches have not yet allocated it. Reserving the full remaining
	// dependence footprint atomically before the first fetch prevents
	// the partial-acquisition deadlock that concurrent IO threads
	// would otherwise hit when several tasks each pin part of their
	// blocks and wait forever for the rest.
	reserved int64

	// aud is the optional invariant auditor; nil when Options.Audit is
	// off (every audit.Auditor method is a no-op on nil).
	aud *audit.Auditor
	// met is the optional metrics collector, attached to the runtime's
	// event stream; nil unless Options.Metrics or Options.Audit is set.
	// The manager reads it only to build snapshots.
	met *audit.Metrics
	// idleKernels holds finished kernel runs for RunKernel to reuse.
	idleKernels []*kernelRun
	// edgeKeys caches noteEdge's "SRC->DST" keys, indexed by
	// src*len(tiers)+dst; empty until the edge first moves bytes.
	edgeKeys []string

	// Stats aggregates data-movement activity.
	Stats Stats
}

// Stats counts a manager's data movement: what a capture's stats footer
// copies, and what a verdict-only replay returns.
type Stats struct {
	Fetches      int64
	Evictions    int64
	BytesFetched int64
	BytesEvicted int64
	FetchTime    sim.Time
	EvictTime    sim.Time
	TasksStaged  int64
	TasksInline  int64
	// Refetches counts fetches of blocks that had been resident
	// before — traffic an ideal eviction order would avoid.
	Refetches int64
	// StageRetries counts staging attempts aborted for lack of
	// HBM capacity.
	StageRetries int64
	// ForcedEvictions counts evictions of blocks that a queued
	// task still needed (capacity pressure overrode affinity).
	ForcedEvictions int64
	// EdgeBytes attributes moved bytes to the directed tier edge
	// they actually crossed, keyed "SRC->DST" by node name. Fetch
	// edges end at the near tier, evict edges leave it; on a
	// two-tier machine the map holds exactly the classic
	// DDR4->MCDRAM / MCDRAM->DDR4 pair. BytesFetched/BytesEvicted
	// above remain the HBM-side aggregates (each byte counted on
	// exactly one edge, so the per-direction edge sums equal them).
	EdgeBytes map[string]int64
}

// NewManager builds a manager for rt under opts and installs it as the
// runtime's interceptor when the mode moves data.
func NewManager(rt *charm.Runtime, opts Options) *Manager {
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Manager{rt: rt, mach: rt.Machine(), opts: opts}
	m.tiers = m.mach.Chain()
	if opts.Audit || opts.Metrics {
		m.met = audit.NewMetrics(rt.Engine(), rt.NumPEs())
		rt.Attach(m.met)
	}
	if opts.Audit {
		m.aud = audit.New(rt.Engine(), audit.Config{
			Budget:   m.HBMBudget(),
			Queues:   rt.NumPEs(),
			Metrics:  m.met,
			NearTier: m.hbm().Name,
			Probe: func() audit.Probe {
				return audit.Probe{
					HBMUsed:         m.hbm().Used(),
					Reserved:        m.reserved,
					Fetches:         m.Stats.Fetches,
					Evictions:       m.Stats.Evictions,
					ForcedEvictions: m.Stats.ForcedEvictions,
					Refetches:       m.Stats.Refetches,
					BytesFetched:    m.Stats.BytesFetched,
					BytesEvicted:    m.Stats.BytesEvicted,
					EdgeBytes:       m.Stats.EdgeBytes,
				}
			},
		})
		rt.Engine().SetQuiesceHook(m.auditQuiesce)
	}
	// A migration memcpy is a single thread's copy loop (Fig. 7's
	// cost basis); the full routine adds the fixed alloc/free cost.
	if m.mach.Alloc.MemcpyRateCap == 0 {
		m.mach.Alloc.MemcpyRateCap = m.mach.Spec.MemcpyBW
	}
	if m.mach.Alloc.MigrateOpCost == 0 {
		m.mach.Alloc.MigrateOpCost = m.mach.Spec.MigrationOpCost
	}
	m.installStrategy()
	if m.strat != nil {
		rt.SetInterceptor(m)
	}
	return m
}

// installStrategy builds the scheduling strategy for the current mode.
// Called at construction and again by Retune on a mode switch.
func (m *Manager) installStrategy() {
	switch m.opts.Mode {
	case DDROnly, Baseline:
		// No interception: placement only.
		m.strat = nil
	case SingleIO:
		m.strat = newSingleIO(m)
	case NoIO:
		m.strat = newNoIO(m)
	case MultiIO:
		m.strat = newMultiIO(m)
	}
}

// Runtime returns the runtime this manager serves.
func (m *Manager) Runtime() *charm.Runtime { return m.rt }

// Mode returns the configured mode.
func (m *Manager) Mode() Mode { return m.opts.Mode }

// Options returns the manager's configuration.
func (m *Manager) Options() Options { return m.opts }

// hbm is the near end of the tier chain; bottom the far end, where
// blocks are born and full demotions land. On the paper's machine the
// two-entry chain makes bottom the DDR4 node.
func (m *Manager) hbm() *memsim.Node    { return m.tiers[0] }
func (m *Manager) bottom() *memsim.Node { return m.tiers[len(m.tiers)-1] }

// tierOf returns the chain index of the node currently holding h's
// buffer.
func (m *Manager) tierOf(h *Handle) int {
	node := h.buf.Node()
	for i, t := range m.tiers {
		if t == node {
			return i
		}
	}
	panic(fmt.Sprintf("core: block %s on unknown node %s", h.name, node.Name))
}

// noteEdge attributes n moved bytes to the edge from tier si to tier
// di in the manager's Stats. Each edge key is built once.
func (m *Manager) noteEdge(si, di int, n int64) {
	if m.Stats.EdgeBytes == nil {
		m.Stats.EdgeBytes = make(map[string]int64)
	}
	if m.edgeKeys == nil {
		m.edgeKeys = make([]string, len(m.tiers)*len(m.tiers))
	}
	key := &m.edgeKeys[si*len(m.tiers)+di]
	if *key == "" {
		*key = m.tiers[si].Name + "->" + m.tiers[di].Name
	}
	m.Stats.EdgeBytes[*key] += n
}

// HBMBudget returns the bytes of HBM available for data blocks.
func (m *Manager) HBMBudget() int64 { return m.hbm().Cap - m.opts.HBMReserve }

// ReservedBytes returns the HBM capacity currently promised to staging
// tasks but not yet allocated. At quiescence it must be zero — every
// reservation consumed or refunded exactly once — which the serve
// layer checks at session completion even when the full auditor is
// off.
func (m *Manager) ReservedBytes() int64 { return m.reserved }

// hbmFits reports whether size more bytes can be placed in HBM without
// touching the reserve headroom or capacity promised to other staging
// tasks.
func (m *Manager) hbmFits(size int64) bool {
	return m.hbm().Free()-m.opts.HBMReserve-m.reserved >= size
}

// reserveCapacity atomically claims need bytes of HBM budget for an
// imminent sequence of fetches, reclaiming dead resident blocks on
// demand if required. It reports whether the claim succeeded.
func (m *Manager) reserveCapacity(p *sim.Proc, lane int, need int64) bool {
	if !m.hbmFits(need) && !m.makeRoom(p, lane, need) {
		return false
	}
	m.reserved += need
	if m.rt.Observed() {
		m.notePressure()
	}
	m.aud.Reserve(need)
	return true
}

// The note helpers emit the events of the staging and kernel paths;
// each site calls one behind Runtime.Observed, so an unobserved run
// builds no event. Building each event out of line keeps its 170-odd
// bytes out of those paths' frames, which every PE and IO-thread
// coroutine's stack holds.

// notePressure emits the HBM usage and reservation; called wherever
// either moves.
//
//go:noinline
func (m *Manager) notePressure() {
	m.rt.Emit(charm.Event{Kind: charm.EvPressure, Used: m.hbm().Used(), Reserved: m.reserved})
}

// noteQueue emits a queue-depth or in-flight reading n for lane.
//
//go:noinline
func (m *Manager) noteQueue(kind charm.EventKind, lane, n int) {
	m.rt.Emit(charm.Event{Kind: kind, Lane: lane, N: n})
}

// noteBlock emits an event of block h on lane: a lock wait or a fetch
// begun at start, or a fetch or eviction that took d from or to tier,
// with flag marking a refetch or a forced eviction.
//
//go:noinline
func (m *Manager) noteBlock(kind charm.EventKind, lane int, h *Handle, start, d sim.Time, tier string, flag bool) {
	e := charm.Event{Kind: kind, Lane: lane, Name: h.name, Bytes: h.size, Start: start, Dur: d, Tier: tier}
	switch kind {
	case charm.EvFetchEnd:
		e.Refetch, e.Policy = flag, m.evictPolicy().Name()
	case charm.EvEvict:
		e.Forced, e.Policy = flag, m.evictPolicy().Name()
	}
	m.rt.Emit(e)
}

// noteTask emits an event of task t on PE lane: its admission with
// bytes of dependences (staged when queued), a staging retry that
// needed bytes, or its completion.
//
//go:noinline
func (m *Manager) noteTask(kind charm.EventKind, t *charm.Task, lane int, bytes int64, staged bool) {
	e := charm.Event{Kind: kind, Task: t, Lane: lane, Bytes: bytes, Staged: staged}
	if kind == charm.EvStageRetry {
		e.Used, e.Reserved = m.hbm().Used(), m.reserved
	}
	m.rt.Emit(e)
}

// consumeReservation converts n reserved bytes into an imminent HBM
// allocation (a fetch about to migrate).
func (m *Manager) consumeReservation(n int64) {
	m.reserved -= n
	if m.reserved < 0 {
		panic("core: reservation underflow")
	}
	if m.rt.Observed() {
		m.notePressure()
	}
	m.aud.ConsumeReservation(n)
}

// refundReservation returns n reserved bytes untouched by an aborted
// staging attempt. Every granted reservation is consumed or refunded
// exactly once; the auditor's ledger verifies this at quiescence.
func (m *Manager) refundReservation(n int64) {
	m.reserved -= n
	if m.reserved < 0 {
		panic("core: reservation underflow")
	}
	if m.rt.Observed() {
		m.notePressure()
	}
	m.aud.RefundReservation(n)
}

// NewHandle declares a managed data block of the given size. Placement
// follows the mode: movement strategies and DDROnly start on the
// bottom tier (DDR4 on the paper's machine, the deepest tier of longer
// chains); Baseline fills HBM block-by-block until only the reserve is
// left.
func (m *Manager) NewHandle(name string, size int64) *Handle {
	if size <= 0 {
		panic("core: handle needs positive size")
	}
	h := &Handle{mgr: m, id: len(m.handles), name: name, size: size}
	h.mu.AcquireCost = m.rt.Params().LockCost

	alloc := m.mach.Alloc
	switch m.opts.Mode {
	case Baseline:
		if m.hbmFits(size) {
			buf, err := alloc.AllocOnNode(size, m.hbm().ID)
			if err != nil {
				panic(fmt.Sprintf("core: baseline HBM alloc of %s failed: %v", name, err))
			}
			h.buf, h.state = buf, InHBM
			break
		}
		fallthrough
	default: // DDROnly and all movement strategies allocate on the bottom tier
		buf, err := alloc.AllocOnNode(size, m.bottom().ID)
		if err != nil {
			panic(fmt.Sprintf("core: %s alloc of %s (%d bytes) failed: %v", m.bottom().Name, name, size, err))
		}
		h.buf, h.state = buf, InDDR
	}
	m.handles = append(m.handles, h)
	if h.id>>6 == len(m.dead) {
		m.dead = append(m.dead, 0)
	}
	m.reindex(h)
	if m.rt.Observed() {
		m.rt.Emit(charm.Event{Kind: charm.EvHandle, Name: name, Bytes: size, Tier: h.state.String()})
	}
	return h
}

// Handles returns every handle declared through the manager. The slice
// is a copy; the handles themselves are shared.
func (m *Manager) Handles() []*Handle {
	return append([]*Handle(nil), m.handles...)
}

// ResidentBytes returns the bytes of managed blocks currently in HBM.
func (m *Manager) ResidentBytes() int64 {
	hbm := m.hbm()
	var total int64
	for _, h := range m.handles {
		if h.buf.Node() == hbm {
			total += h.buf.Size()
		}
	}
	return total
}

// errHBMBudget reports that a fetch lost a capacity race and should be
// retried after the next eviction.
var errHBMBudget = fmt.Errorf("core: HBM budget exhausted")

// fetch migrates h into HBM, holding the block lock for the duration.
// When hasReservation is set the caller pre-claimed h.size bytes with
// reserveCapacity; the reservation is consumed here exactly once
// (whether or not a migration turns out to be needed). Otherwise the
// budget check sits directly before the migration, after all lock
// waits, so check-and-allocate is atomic in virtual time.
func (m *Manager) fetch(p *sim.Proc, lane int, h *Handle, hasReservation bool) error {
	waited := p.Now()
	h.mu.Lock(p)
	if m.rt.Observed() {
		m.noteBlock(charm.EvLockWait, lane, h, waited, 0, "", false)
	}
	defer h.mu.Unlock(p)
	if hasReservation {
		m.consumeReservation(h.size)
	}
	if h.state == InHBM {
		return nil
	}
	if h.state == Fetching || h.state == Evicting {
		panic("core: block " + h.name + " in transition while lock held")
	}
	if !hasReservation && !m.hbmFits(h.size) {
		return errHBMBudget
	}
	si := m.tierOf(h)
	src := m.tiers[si]
	m.setState(h, Fetching)
	if m.rt.Observed() {
		m.noteBlock(charm.EvFetchStart, lane, h, 0, 0, "", false)
	}
	start := p.Now()
	d, err := m.mach.Alloc.Migrate(p, h.buf, m.hbm().ID)
	if err != nil {
		// A failed migration costs no virtual time: it fails on the
		// up-front capacity claim.
		m.setState(h, InDDR)
		return err
	}
	m.setState(h, InHBM)
	h.Fetches++
	m.Stats.Fetches++
	m.Stats.BytesFetched += h.size
	m.Stats.FetchTime += d
	m.noteEdge(si, 0, h.size)
	if h.Fetches > 1 {
		m.Stats.Refetches++
	}
	if m.rt.Observed() {
		m.noteBlock(charm.EvFetchEnd, lane, h, start, d, src.Name, h.Fetches > 1)
		m.notePressure()
	}
	m.aud.CheckNow()
	return nil
}

// evict migrates h out of HBM if it is resident, unreferenced, and —
// unless force is set — not needed by any queued task. makeRoom forces
// eviction of pending-use blocks as a last resort under capacity
// pressure.
//
// The landing tier is the policy's demotion target: DemoteBottom drops
// the victim to the far end of the chain (the paper's behaviour, and
// the only option on a two-tier machine), DemoteNext one level below
// HBM, keeping a likely-returning block on the cheapest miss edge.
// When the target tier is full the victim cascades one tier deeper;
// only the bottom tier is a capacity backstop whose failure panics.
func (m *Manager) evict(p *sim.Proc, lane int, h *Handle, force bool) {
	waited := p.Now()
	h.mu.Lock(p)
	if m.rt.Observed() {
		m.noteBlock(charm.EvLockWait, lane, h, waited, 0, "", false)
	}
	defer h.mu.Unlock(p)
	if h.state != InHBM || h.InUse() || h.claims > 0 {
		return
	}
	if !force && h.pendingUses > 0 {
		return
	}
	forced := force && h.pendingUses > 0
	ti := 1 // one level below HBM
	if m.evictPolicy().DemoteTarget() == DemoteBottom {
		ti = len(m.tiers) - 1
	}
	m.setState(h, Evicting)
	start := p.Now()
	var (
		dst *memsim.Node
		d   sim.Time
		err error
	)
	for ; ti < len(m.tiers); ti++ {
		dst = m.tiers[ti]
		// Migrate claims destination capacity atomically up front, so
		// an ErrNoSpace here costs no virtual time and cascading to
		// the next tier is free.
		d, err = m.mach.Alloc.Migrate(p, h.buf, dst.ID)
		if err == nil || !errors.Is(err, numa.ErrNoSpace) {
			break
		}
	}
	if err != nil {
		// The bottom tier is the capacity backstop; failure there (or
		// any non-capacity error) is a configuration error.
		panic(fmt.Sprintf("core: eviction of %s failed: %v", h.name, err))
	}
	m.setState(h, InDDR)
	h.Evictions++
	m.Stats.Evictions++
	if forced {
		m.Stats.ForcedEvictions++
	}
	m.Stats.BytesEvicted += h.size
	m.Stats.EvictTime += d
	m.noteEdge(0, ti, h.size)
	if m.rt.Observed() {
		m.noteBlock(charm.EvEvict, lane, h, start, d, dst.Name, forced)
	}
	m.aud.CheckNow()
}

// evictPolicy returns the configured victim-selection policy.
func (m *Manager) evictPolicy() EvictPolicy {
	if m.opts.EvictPolicy != nil {
		return m.opts.EvictPolicy
	}
	return DeclOrder
}

// TaskCreated implements charm.Interceptor: record queued consumers of
// each dependence block at send time.
func (m *Manager) TaskCreated(t *charm.Task) {
	for _, d := range t.Deps {
		if h, ok := d.Handle.(*Handle); ok && h.mgr == m {
			h.pendingUses++
			m.aud.PendingUse(1)
		}
	}
}

// taskDone balances TaskCreated when a task finishes, stamping each
// dependence's last-use time for the LRU eviction policy.
func (m *Manager) taskDone(t *charm.Task) {
	now := m.rt.Engine().Now()
	for _, d := range t.Deps {
		if h, ok := d.Handle.(*Handle); ok && h.mgr == m {
			m.useDone(h, now)
		}
	}
}

// Intercept implements charm.Interceptor: the generated pre-processing
// step for [prefetch] entry methods.
func (m *Manager) Intercept(p *sim.Proc, pe *charm.PE, t *charm.Task) bool {
	ot := newOOCTask(m, pe, t)
	t.Ctx = ot
	if ot.depBytes > m.HBMBudget() {
		panic(fmt.Sprintf("core: task %s needs %d dep bytes, exceeding the %d-byte HBM budget; decompose further",
			t, ot.depBytes, m.HBMBudget()))
	}
	staged := m.strat.admit(p, ot)
	if m.rt.Observed() {
		m.noteTask(charm.EvAdmit, t, pe.ID(), ot.depBytes, staged)
	}
	return staged
}

// PostProcess implements charm.Interceptor: the generated
// post-processing (eviction) step after a [prefetch] entry runs.
func (m *Manager) PostProcess(p *sim.Proc, pe *charm.PE, t *charm.Task) {
	m.taskDone(t)
	ot, _ := t.Ctx.(*OOCTask)
	if ot != nil {
		m.strat.complete(p, ot)
	}
	if m.rt.Observed() {
		m.noteTask(charm.EvTaskDone, t, pe.ID(), 0, false)
	}
}

// strategy is the scheduling policy plugged into the manager.
type strategy interface {
	name() string
	// admit is pre-processing: returns true if the task was staged
	// (owned by the strategy), false to execute inline now.
	admit(p *sim.Proc, ot *OOCTask) bool
	// complete is post-processing after the entry method ran.
	complete(p *sim.Proc, ot *OOCTask)
	// queues returns the strategy's wait queues of staged tasks: the
	// watchdog's stuck-task snapshot and the Lookahead eviction
	// policy's view of upcoming declared uses read them.
	queues() taskQueues
}

// Retune applies a new option set to a running manager. Knob-only
// changes (IOThreads, PrefetchDepth, EvictLazily, EvictPolicy) take effect
// immediately — the strategies read those dynamically — and are safe
// from any context. A mode change rebuilds the strategy and is only
// legal between the movement modes (SingleIO, NoIO, MultiIO) at a
// quiescent point: no task staged or queued anywhere and no handle
// referenced, the state an application barrier guarantees. The fixed
// structural fields (HBMReserve, SharedWaitQueue, Audit, Metrics)
// cannot be retuned.
func (m *Manager) Retune(o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	cur := m.opts
	switch {
	case o.HBMReserve != cur.HBMReserve:
		return fmt.Errorf("core: Retune cannot change HBMReserve (%d -> %d)", cur.HBMReserve, o.HBMReserve)
	case o.SharedWaitQueue != cur.SharedWaitQueue:
		return fmt.Errorf("core: Retune cannot change SharedWaitQueue")
	case o.Audit != cur.Audit || o.Metrics != cur.Metrics:
		return fmt.Errorf("core: Retune cannot change Audit/Metrics")
	}
	if o.Mode != cur.Mode {
		if !cur.Mode.Moves() || !o.Mode.Moves() {
			return fmt.Errorf("core: Retune cannot switch between %v and %v (only movement strategies)", cur.Mode, o.Mode)
		}
		if !m.retuneQuiescent() {
			return fmt.Errorf("core: Retune mode switch %v -> %v outside a quiescent barrier", cur.Mode, o.Mode)
		}
		m.opts = o
		// The old strategy's parked IO processes are abandoned; the
		// engine reaps them at Close, and the watchdog ignores them
		// because they hold no tasks.
		m.installStrategy()
		m.noteRetune()
		return nil
	}
	if o.IOThreads != cur.IOThreads {
		if s, ok := m.strat.(*singleIO); ok {
			s.setIOThreads(o.IOThreads)
		}
	}
	// PrefetchDepth, EvictLazily and EvictPolicy are read dynamically
	// at each staging/release/reclaim decision; updating the options
	// is enough.
	m.opts = o
	m.noteRetune()
	return nil
}

// noteRetune emits a retune once the new options are in force.
func (m *Manager) noteRetune() {
	if m.rt.Observed() {
		m.rt.Emit(charm.Event{Kind: charm.EvRetune})
	}
}

// retuneQuiescent reports whether the staging protocol is at a
// barrier-quiescent point: every wait queue empty and every handle
// unreferenced, unclaimed and not in transition. Only called when no
// process is running (a reduction callback or the quiesce hook), which
// is what makes the unlocked queue snapshot safe.
func (m *Manager) retuneQuiescent() bool {
	if m.strat != nil {
		for _, q := range m.strat.queues().queued() {
			if len(q) > 0 {
				return false
			}
		}
	}
	for _, h := range m.handles {
		if h.refs != 0 || h.claims != 0 || h.state == Fetching || h.state == Evicting {
			return false
		}
	}
	return true
}

// Auditor returns the invariant auditor, or nil when Options.Audit is
// off.
func (m *Manager) Auditor() *audit.Auditor { return m.aud }

// Metrics returns the metrics collector, or nil when neither
// Options.Metrics nor Options.Audit is set.
func (m *Manager) Metrics() *audit.Metrics { return m.met }

// MetricsSnapshot exports the metrics collector filled in with the
// manager-side fields; unlike AuditSnapshot it works without the
// auditor. ok is false when metrics are off.
func (m *Manager) MetricsSnapshot() (s audit.Snapshot, ok bool) {
	if m.met == nil {
		return audit.Snapshot{}, false
	}
	s = m.met.Snapshot()
	s.HBMBudget = m.HBMBudget()
	m.fillSnapshot(&s)
	return s, true
}

// AuditSnapshot exports the auditor's state and metrics, filled in with
// the manager-side fields. ok is false when auditing is disabled.
func (m *Manager) AuditSnapshot() (s audit.Snapshot, ok bool) {
	if m.aud == nil {
		return audit.Snapshot{}, false
	}
	s = m.aud.Snapshot()
	m.fillSnapshot(&s)
	return s, true
}

// fillSnapshot copies the manager-side fields into s: the options in
// force and the movement ledger, Stats.
func (m *Manager) fillSnapshot(s *audit.Snapshot) {
	st := &m.Stats
	s.Mode = m.opts.Mode.String()
	s.EvictPolicy = m.evictPolicy().Name()
	s.Fetches = st.Fetches
	s.Evictions = st.Evictions
	s.BytesFetched = st.BytesFetched
	s.BytesEvicted = st.BytesEvicted
	s.StageRetries = st.StageRetries
	s.ForcedEvictions = st.ForcedEvictions
	s.Refetches = st.Refetches
	s.TasksStaged = st.TasksStaged
	s.TasksInline = st.TasksInline
	if len(st.EdgeBytes) > 0 {
		s.TierEdges = make(map[string]int64, len(st.EdgeBytes))
		for k, v := range st.EdgeBytes {
			s.TierEdges[k] = v
		}
	}
}

// auditQuiesce is the watchdog, installed as the engine's quiesce hook:
// it runs whenever the event queue drains. If staged tasks are still
// parked in wait queues at that point nothing will ever wake them — a
// lost wakeup or starvation — so it files a StallReport naming the
// stuck tasks and their blocking handles. Otherwise the system is truly
// quiescent and the conservation invariants must all balance to zero.
func (m *Manager) auditQuiesce() {
	if m.aud == nil {
		return
	}
	var stuck []audit.StuckTask
	if m.strat != nil {
		for qi, q := range m.strat.queues().queued() {
			for _, ot := range q {
				st := audit.StuckTask{Task: ot.t.String(), PE: ot.pe.ID(), Queue: qi}
				for _, d := range ot.deps {
					st.Deps = append(st.Deps, audit.BlockInfo{
						Name:        d.h.name,
						Size:        d.h.size,
						State:       d.h.state.String(),
						Refs:        d.h.refs,
						Claims:      d.h.claims,
						PendingUses: d.h.pendingUses,
					})
				}
				stuck = append(stuck, st)
			}
		}
	}
	var msgs, runs []int
	undelivered := 0
	for i := 0; i < m.rt.NumPEs(); i++ {
		mq, rq := m.rt.PE(i).QueueLengths()
		msgs = append(msgs, mq)
		runs = append(runs, rq)
		undelivered += mq + rq
	}
	if len(stuck) > 0 || undelivered > 0 {
		m.aud.Stall(&audit.StallReport{
			Time:         m.rt.Engine().Now(),
			BlockedProcs: m.rt.Engine().BlockedProcNames(),
			Stuck:        stuck,
			PEQueueMsgs:  msgs,
			PEQueueRuns:  runs,
			HBMUsed:      m.hbm().Used(),
			Reserved:     m.reserved,
			Budget:       m.HBMBudget(),
		})
		return
	}
	m.aud.CheckQuiescent()
	for _, h := range m.handles {
		if h.refs != 0 || h.claims != 0 {
			m.aud.Violate("quiescence-handle", "block %s: refs=%d claims=%d at quiescence",
				h.name, h.refs, h.claims)
		}
		if h.state == Fetching || h.state == Evicting {
			m.aud.Violate("quiescence-state", "block %s stuck in %v at quiescence", h.name, h.state)
		}
	}
}
