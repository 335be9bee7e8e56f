// Package audit implements the opt-in invariant-audit and metrics layer
// for the staging protocol. It keeps a shadow ledger of every HBM
// reservation, pin, claim and pending-use the OOC layer reports, checks
// the conservation invariants continuously (reserved + resident never
// exceeds the HBM budget, the ledger never goes negative, the shadow
// reservation counter always matches the manager's), and exports
// structured metrics snapshots as JSON.
//
// The auditor is nil-safe: every recording method on a nil *Auditor is
// a no-op, so the hot paths in internal/core carry a single pointer
// check when auditing is disabled.
//
// The watchdog half lives in the caller: internal/core registers an
// engine quiesce hook that, when the event queue drains with staged
// work still parked in wait queues, files a StallReport here naming the
// stuck tasks and their blocking handles — turning a silent starvation
// hang into a diagnostic instead of a test timeout.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hetmem/hetmem/internal/sim"
)

// Probe is a point-in-time reading of the runtime counters under audit,
// supplied by the owner (the core.Manager) so the auditor can
// cross-check its shadow ledger and the metrics against the real state.
type Probe struct {
	// HBMUsed is the bytes currently allocated on the HBM node.
	HBMUsed int64
	// Reserved is the manager's outstanding staging reservation.
	Reserved int64
	// The rest is the manager's movement ledger (its Stats), which the
	// quiescence checks hold the metrics and the per-edge attribution
	// against.
	Fetches, Evictions, ForcedEvictions, Refetches int64
	BytesFetched, BytesEvicted                     int64
	// EdgeBytes attributes moved bytes to the directed tier edge they
	// crossed, keyed "SRC->DST" by memory node name.
	EdgeBytes map[string]int64
}

// Config parameterises an Auditor.
type Config struct {
	// Budget is the HBM bytes available to data blocks (capacity minus
	// the reserve headroom).
	Budget int64
	// Queues is the number of wait queues / PEs to track depth peaks
	// for.
	Queues int
	// Probe reads the live counters; required for capacity checks.
	Probe func() Probe
	// Metrics is the collector snapshots are filled from. New creates
	// one when nil, so an auditor always has metrics behind it; owners
	// that attach a collector to the runtime's event stream pass it.
	Metrics *Metrics
	// MaxViolations caps the stored violation list (default 64); the
	// total count keeps incrementing past the cap.
	MaxViolations int
	// NearTier is the name of the near memory node (the tier every
	// fetch ends on and every evict leaves). When set, CheckQuiescent
	// cross-checks the probe's per-edge byte attribution against its
	// aggregate fetch/evict totals: each moved byte must land on exactly
	// one edge, so a one-level demotion cannot also be counted against
	// the bottom tier.
	NearTier string
}

// Violation is one detected invariant breach, stamped with the virtual
// time at which it was observed.
type Violation struct {
	Time   float64 `json:"time_s"`
	Rule   string  `json:"rule"`
	Detail string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[t=%.6f] %s: %s", v.Time, v.Rule, v.Detail)
}

// Histogram is a fixed-bucket histogram of virtual-time durations in
// seconds. Counts has one entry per bound plus a final overflow bucket.
type Histogram struct {
	Bounds []float64 `json:"bounds_s"`
	Counts []int64   `json:"counts"`
	N      int64     `json:"n"`
	Sum    float64   `json:"sum_s"`
	Max    float64   `json:"max_s"`
}

// newDurationHist covers microseconds to hundreds of seconds, decade
// buckets — fetch/evict times span this range across scales.
func newDurationHist() Histogram {
	bounds := []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}
	return Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

func (h *Histogram) observe(d float64) {
	i := sort.SearchFloat64s(h.Bounds, d)
	h.Counts[i]++
	h.N++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
}

// Clone returns a deep copy. A plain struct copy shares the Bounds and
// Counts slice headers with the live histogram, so later observe()
// calls would mutate what the caller believes is a frozen snapshot.
func (h Histogram) Clone() Histogram {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Counts = append([]int64(nil), h.Counts...)
	return h
}

// StuckTask describes one task parked in a wait queue at quiescence.
type StuckTask struct {
	Task  string      `json:"task"`
	PE    int         `json:"pe"`
	Queue int         `json:"queue"`
	Deps  []BlockInfo `json:"deps"`
}

// BlockInfo is the audit view of a data block a stuck task is waiting
// on.
type BlockInfo struct {
	Name        string `json:"name"`
	Size        int64  `json:"size_bytes"`
	State       string `json:"state"`
	Refs        int    `json:"refs"`
	Claims      int    `json:"claims"`
	PendingUses int    `json:"pending_uses"`
}

// StallReport is the watchdog's diagnostic for a silent hang: the event
// queue drained while wait queues still held staged tasks.
type StallReport struct {
	Time         float64     `json:"time_s"`
	BlockedProcs []string    `json:"blocked_procs"`
	Stuck        []StuckTask `json:"stuck_tasks"`
	PEQueueMsgs  []int       `json:"pe_msg_queue_depths"`
	PEQueueRuns  []int       `json:"pe_run_queue_depths"`
	HBMUsed      int64       `json:"hbm_used_bytes"`
	Reserved     int64       `json:"reserved_bytes"`
	Budget       int64       `json:"budget_bytes"`
}

// String renders the report for error messages and logs.
func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall at t=%.6f: %d task(s) stuck, HBM used %d / budget %d, reserved %d\n",
		r.Time, len(r.Stuck), r.HBMUsed, r.Budget, r.Reserved)
	for _, st := range r.Stuck {
		fmt.Fprintf(&b, "  %s (PE %d, queue %d) waiting on:\n", st.Task, st.PE, st.Queue)
		for _, d := range st.Deps {
			fmt.Fprintf(&b, "    %s: %d bytes, %s, refs=%d claims=%d pendingUses=%d\n",
				d.Name, d.Size, d.State, d.Refs, d.Claims, d.PendingUses)
		}
	}
	fmt.Fprintf(&b, "  blocked procs: %s", strings.Join(r.BlockedProcs, ", "))
	return b.String()
}

// Snapshot is the exported metrics state, JSON-serialisable. The owner
// fills in the fields it knows (Mode, Label, the movement and task
// counters of its Stats); the auditor and its metrics fill in
// everything they tracked.
type Snapshot struct {
	Label           string  `json:"label,omitempty"`
	Mode            string  `json:"mode,omitempty"`
	Time            float64 `json:"virtual_time_s"`
	HBMBudget       int64   `json:"hbm_budget_bytes"`
	HBMHighWater    int64   `json:"hbm_high_water_bytes"`
	ReservedPeak    int64   `json:"reserved_peak_bytes"`
	Fetches         int64   `json:"fetches"`
	Evictions       int64   `json:"evictions"`
	BytesFetched    int64   `json:"bytes_fetched"`
	BytesEvicted    int64   `json:"bytes_evicted"`
	StageRetries    int64   `json:"stage_retries"`
	ForcedEvictions int64   `json:"forced_evictions"`
	Refetches       int64   `json:"refetches"`
	EvictPolicy     string  `json:"evict_policy,omitempty"`
	// PolicyStats splits eviction activity by the victim-selection
	// policy active when it happened. encoding/json renders map keys
	// sorted, so snapshots stay byte-deterministic.
	PolicyStats map[string]PolicyCounters `json:"evict_policy_stats,omitempty"`
	// TierEdges attributes moved bytes to the directed tier edge they
	// crossed, keyed "SRC->DST" by memory node name. Empty on runs
	// recorded before per-edge accounting (and in snapshots of
	// movement-free modes), keeping older fixtures byte-identical.
	TierEdges      map[string]int64 `json:"tier_edges,omitempty"`
	TasksStaged    int64            `json:"tasks_staged"`
	TasksInline    int64            `json:"tasks_inline"`
	QueueDepthPeak []int            `json:"queue_depth_peak"`
	InflightPeak   []int            `json:"inflight_peak"`
	FetchHist      Histogram        `json:"fetch_hist"`
	EvictHist      Histogram        `json:"evict_hist"`
	ViolationCount int64            `json:"violation_count"`
	Violations     []Violation      `json:"violations,omitempty"`
	Stall          *StallReport     `json:"stall,omitempty"`
}

// Auditor tracks the shadow ledger and the invariants for one manager.
// The metrics live in the companion Metrics type (the adaptive layer
// samples those without the ledger); the auditor reads them to fill
// snapshots and to check them against the manager's Stats. All methods are safe on a nil receiver
// (no-ops), so callers hold a plain possibly-nil pointer.
type Auditor struct {
	eng *sim.Engine
	cfg Config

	// Shadow ledger, maintained purely from reported events.
	reserved      int64 // mirror of the manager's reservation counter
	pins          int64 // outstanding pin balance across all handles
	claims        int64 // outstanding claim balance
	pendingUses   int64 // outstanding pending-use balance
	bytesReserved int64 // total bytes ever granted by the manager's reserve
	bytesConsumed int64 // reservation bytes converted into fetches
	bytesRefunded int64 // reservation bytes returned by aborts

	violationCount int64
	violations     []Violation
	stall          *StallReport
}

// New builds an auditor on eng. cfg.Probe may be nil, in which case the
// capacity cross-checks are skipped (ledger checks still run).
func New(eng *sim.Engine, cfg Config) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 64
	}
	if cfg.Queues < 0 {
		cfg.Queues = 0
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(eng, cfg.Queues)
	}
	return &Auditor{eng: eng, cfg: cfg}
}

// Metrics returns the metrics collector behind this auditor.
func (a *Auditor) Metrics() *Metrics {
	if a == nil {
		return nil
	}
	return a.cfg.Metrics
}

// now returns the current virtual time.
func (a *Auditor) now() float64 {
	if a.eng == nil {
		return 0
	}
	return a.eng.Now()
}

// Violate records an invariant breach.
func (a *Auditor) Violate(rule, format string, args ...interface{}) {
	if a == nil {
		return
	}
	a.violationCount++
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, Violation{
			Time:   a.now(),
			Rule:   rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// CheckNow runs the continuous invariants against the live probe:
// shadow/real reservation agreement, non-negative ledger balances, and
// reserved + resident within the HBM budget.
func (a *Auditor) CheckNow() {
	if a == nil {
		return
	}
	if a.pins < 0 {
		a.Violate("pin-balance", "pin balance went negative: %d", a.pins)
	}
	if a.claims < 0 {
		a.Violate("claim-balance", "claim balance went negative: %d", a.claims)
	}
	if a.pendingUses < 0 {
		a.Violate("pending-use-balance", "pending-use balance went negative: %d", a.pendingUses)
	}
	if a.cfg.Probe == nil {
		return
	}
	pr := a.cfg.Probe()
	if pr.Reserved != a.reserved {
		a.Violate("reservation-ledger", "manager reserved=%d but ledger says %d", pr.Reserved, a.reserved)
	}
	if pr.Reserved < 0 {
		a.Violate("reservation-negative", "reserved=%d", pr.Reserved)
	}
	if pr.HBMUsed+pr.Reserved > a.cfg.Budget {
		a.Violate("capacity", "used %d + reserved %d exceeds budget %d",
			pr.HBMUsed, pr.Reserved, a.cfg.Budget)
	}
}

// Reserve records a successful capacity reservation of n bytes.
func (a *Auditor) Reserve(n int64) {
	if a == nil {
		return
	}
	a.reserved += n
	a.bytesReserved += n
	a.CheckNow()
}

// ConsumeReservation records n reserved bytes converted into an HBM
// allocation by a fetch.
func (a *Auditor) ConsumeReservation(n int64) {
	if a == nil {
		return
	}
	a.reserved -= n
	a.bytesConsumed += n
	a.CheckNow()
}

// RefundReservation records n reserved bytes returned unused by an
// aborted staging attempt.
func (a *Auditor) RefundReservation(n int64) {
	if a == nil {
		return
	}
	a.reserved -= n
	a.bytesRefunded += n
	a.CheckNow()
}

// Pin adjusts the outstanding pin balance.
func (a *Auditor) Pin(delta int) {
	if a == nil {
		return
	}
	a.pins += int64(delta)
	if a.pins < 0 {
		a.Violate("pin-balance", "pin balance went negative: %d", a.pins)
	}
}

// Claim adjusts the outstanding claim balance.
func (a *Auditor) Claim(delta int) {
	if a == nil {
		return
	}
	a.claims += int64(delta)
	if a.claims < 0 {
		a.Violate("claim-balance", "claim balance went negative: %d", a.claims)
	}
}

// PendingUse adjusts the outstanding pending-use balance.
func (a *Auditor) PendingUse(delta int) {
	if a == nil {
		return
	}
	a.pendingUses += int64(delta)
	if a.pendingUses < 0 {
		a.Violate("pending-use-balance", "pending-use balance went negative: %d", a.pendingUses)
	}
}

// CheckInflight verifies PE pe's staged-but-uncompleted task count
// against the configured prefetch-depth limit (bound > 0), whose
// violation is the X6 invariant. Peak tracking lives on Metrics.
func (a *Auditor) CheckInflight(pe, depth, bound int) {
	if a == nil {
		return
	}
	if bound > 0 && depth > bound {
		a.Violate("prefetch-depth", "PE %d has %d tasks in flight, bound %d", pe, depth, bound)
	}
}

// Stall files the watchdog's diagnostic for a silent hang.
func (a *Auditor) Stall(r *StallReport) {
	if a == nil {
		return
	}
	a.stall = r
	a.Violate("starvation", "event queue drained with %d task(s) stuck in wait queues", len(r.Stuck))
}

// CheckQuiescent verifies the at-quiescence conservation laws: the
// reservation counter drained, every granted byte was consumed or
// refunded exactly once, and the metrics saw every movement the
// manager's ledger counts. Handle-level balances are verified by the
// owner, which can see the handles.
func (a *Auditor) CheckQuiescent() {
	if a == nil {
		return
	}
	a.CheckNow()
	if a.reserved != 0 {
		a.Violate("quiescence-reserved", "reservation counter %d at quiescence, want 0", a.reserved)
	}
	if a.bytesReserved != a.bytesConsumed+a.bytesRefunded {
		a.Violate("quiescence-ledger",
			"reserved %d bytes but consumed %d + refunded %d — a reservation leaked or double-spent",
			a.bytesReserved, a.bytesConsumed, a.bytesRefunded)
	}
	if a.pins != 0 {
		a.Violate("quiescence-pins", "pin balance %d at quiescence, want 0", a.pins)
	}
	if a.claims != 0 {
		a.Violate("quiescence-claims", "claim balance %d at quiescence, want 0", a.claims)
	}
	if a.pendingUses != 0 {
		a.Violate("quiescence-pending", "pending-use balance %d at quiescence, want 0", a.pendingUses)
	}
	if a.cfg.Probe == nil {
		return
	}
	pr := a.cfg.Probe()
	a.checkMetrics(pr)
	a.checkEdgeConservation(pr)
}

// checkMetrics verifies that the metrics saw every movement the
// manager's ledger counts: one histogram sample per fetch and per
// eviction, and a per-policy split that sums to the eviction, forced
// eviction and refetch totals. A movement site that stops emitting its
// event fails here.
func (a *Auditor) checkMetrics(pr Probe) {
	m := a.cfg.Metrics
	if m.fetchHist.N != pr.Fetches {
		a.Violate("metrics-fetches", "fetch histogram holds %d samples but %d fetches happened", m.fetchHist.N, pr.Fetches)
	}
	if m.evictHist.N != pr.Evictions {
		a.Violate("metrics-evictions", "evict histogram holds %d samples but %d evictions happened", m.evictHist.N, pr.Evictions)
	}
	var sum PolicyCounters
	for i := range m.policy {
		pc := m.policy[i].pc
		sum.Evictions += pc.Evictions
		sum.ForcedEvictions += pc.ForcedEvictions
		sum.Refetches += pc.Refetches
	}
	if want := (PolicyCounters{pr.Evictions, pr.ForcedEvictions, pr.Refetches}); sum != want {
		a.Violate("metrics-policy-split", "per-policy split sums to %+v but the ledger counts %+v", sum, want)
	}
}

// checkEdgeConservation verifies the per-edge byte attribution against
// the aggregate counters: every fetched byte crossed exactly one edge
// into the near tier, every evicted byte exactly one edge out of it,
// and no edge bypasses the near tier (managed blocks only ever move to
// or from HBM). Before per-edge accounting, a one-level demotion would
// have been indistinguishable from a full drop to the bottom tier and
// the HBM↔far totals double-counted it; these sums pin the attribution
// down.
func (a *Auditor) checkEdgeConservation(pr Probe) {
	if a.cfg.NearTier == "" {
		return
	}
	keys := make([]string, 0, len(pr.EdgeBytes))
	for key := range pr.EdgeBytes {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var in, out int64
	for _, key := range keys {
		n := pr.EdgeBytes[key]
		src, dst, ok := strings.Cut(key, "->")
		if !ok {
			a.Violate("edge-key", "malformed tier edge key %q", key)
			continue
		}
		switch a.cfg.NearTier {
		case dst:
			in += n
		case src:
			out += n
		default:
			a.Violate("edge-bypass", "tier edge %s (%d bytes) bypasses near tier %s", key, n, a.cfg.NearTier)
		}
	}
	if in != pr.BytesFetched {
		a.Violate("edge-fetch-conservation",
			"edges into %s carry %d bytes but %d were fetched — bytes counted on no or multiple edges",
			a.cfg.NearTier, in, pr.BytesFetched)
	}
	if out != pr.BytesEvicted {
		a.Violate("edge-evict-conservation",
			"edges out of %s carry %d bytes but %d were evicted — bytes counted on no or multiple edges",
			a.cfg.NearTier, out, pr.BytesEvicted)
	}
}

// Ok reports whether no violation has been detected.
func (a *Auditor) Ok() bool { return a == nil || a.violationCount == 0 }

// Violations returns the recorded violations (capped at
// Config.MaxViolations; ViolationCount in the snapshot has the total).
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	// Copy: the auditor keeps appending, and a shared backing array
	// would let a later violation overwrite the caller's view.
	return append([]Violation(nil), a.violations...)
}

// StallReport returns the watchdog diagnostic, or nil if no stall was
// detected.
func (a *Auditor) StallReport() *StallReport {
	if a == nil {
		return nil
	}
	return a.stall
}

// Err summarises the violations as a single error, or nil when clean.
func (a *Auditor) Err() error {
	if a.Ok() {
		return nil
	}
	first := a.violations[0]
	return fmt.Errorf("audit: %d invariant violation(s), first: %s", a.violationCount, first)
}

// Snapshot exports the audit state with the metrics filled in from the
// companion collector. The caller fills Label, Mode and the movement
// counters it owns.
func (a *Auditor) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Time:           a.now(),
		HBMBudget:      a.cfg.Budget,
		ViolationCount: a.violationCount,
		Violations:     append([]Violation(nil), a.violations...),
		Stall:          a.stall,
	}
	a.cfg.Metrics.fill(&s)
	return s
}
