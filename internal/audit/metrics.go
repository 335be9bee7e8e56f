package audit

import (
	"github.com/hetmem/hetmem/internal/sim"
)

// Counters is a cheap point-in-time view of the metrics counters, the
// feedback vector the adaptive layer samples at iteration barriers.
// Copying it is a handful of loads — no allocation, no invariant
// checking — so a controller can take one every iteration without
// paying the auditor's cost.
type Counters struct {
	Fetches         int64
	Evictions       int64
	BytesFetched    int64
	BytesEvicted    int64
	StageRetries    int64
	ForcedEvictions int64
	Refetches       int64
	HBMHighWater    int64
	ReservedPeak    int64
}

// PolicyCounters attributes eviction activity to the victim-selection
// policy that was active when it happened, so policy switches mid-run
// (the adaptive controller's victim-upgrade rule) keep a before/after
// split and fixed-policy runs get per-policy totals to compare.
type PolicyCounters struct {
	Evictions       int64 `json:"evictions"`
	ForcedEvictions int64 `json:"forced_evictions"`
	Refetches       int64 `json:"refetches"`
}

// Metrics is the counter half of the audit layer, split out of the
// invariant Auditor so runtime feedback (histograms, peaks, retry
// counts) can be collected without the shadow ledger and its
// conservation checks. Like the Auditor, a nil *Metrics is valid and
// every method on it is a no-op, so the hot paths in internal/core
// carry a single pointer check when metrics are off.
//
// The Auditor holds a *Metrics and fills snapshots from it; enabling
// audit therefore always enables metrics, but not vice versa.
type Metrics struct {
	eng *sim.Engine

	fetches         int64
	evictions       int64
	bytesFetched    int64
	bytesEvicted    int64
	stageRetries    int64
	forcedEvictions int64
	refetches       int64
	hbmHighWater    int64
	reservedPeak    int64
	queueDepthPeak  []int
	inflightPeak    []int
	fetchHist       Histogram
	evictHist       Histogram
	// policy attributes evictions to victim-selection policies. A run
	// uses a handful of policy names at most, and the active one
	// repeats for long stretches, so a first-use-order slice with a
	// last-hit memo beats a map lookup per eviction event.
	policy     []policyEntry
	lastPolicy int
	// edges attributes moved bytes to the directed tier edge they
	// crossed ("SRC->DST" by node name) — same first-use-order slice
	// scheme as policy: a chain of t tiers has at most 2(t-1) edges.
	edges    []edgeEntry
	lastEdge int
}

// policyEntry pairs a policy name with its counters in first-use order.
type policyEntry struct {
	name string
	pc   PolicyCounters
}

// edgeEntry pairs a directed tier edge with its byte count.
type edgeEntry struct {
	key   string
	bytes int64
}

// NewMetrics builds a metrics collector tracking queue-depth and
// inflight peaks for queues wait queues / PEs.
func NewMetrics(eng *sim.Engine, queues int) *Metrics {
	if queues < 0 {
		queues = 0
	}
	return &Metrics{
		eng:            eng,
		queueDepthPeak: make([]int, queues),
		inflightPeak:   make([]int, queues),
		fetchHist:      newDurationHist(),
		evictHist:      newDurationHist(),
	}
}

// FetchDone records a completed fetch of n bytes taking d virtual
// seconds.
func (m *Metrics) FetchDone(n int64, d sim.Time) {
	if m == nil {
		return
	}
	m.fetches++
	m.bytesFetched += n
	m.fetchHist.observe(d)
}

// EvictDone records a completed eviction of n bytes taking d virtual
// seconds; forced marks an eviction of a block a queued task still
// needed.
func (m *Metrics) EvictDone(n int64, d sim.Time, forced bool) {
	if m == nil {
		return
	}
	m.evictions++
	m.bytesEvicted += n
	if forced {
		m.forcedEvictions++
	}
	m.evictHist.observe(d)
}

// Refetch records a fetch of a block that had been resident before,
// attributed to the named eviction policy (the policy that bounced it).
func (m *Metrics) Refetch(policy string) {
	if m == nil {
		return
	}
	m.refetches++
	m.policyCounters(policy).Refetches++
}

// PolicyEvict attributes a completed eviction to the named
// victim-selection policy.
func (m *Metrics) PolicyEvict(policy string, forced bool) {
	if m == nil {
		return
	}
	pc := m.policyCounters(policy)
	pc.Evictions++
	if forced {
		pc.ForcedEvictions++
	}
}

func (m *Metrics) policyCounters(name string) *PolicyCounters {
	if m.lastPolicy < len(m.policy) && m.policy[m.lastPolicy].name == name {
		return &m.policy[m.lastPolicy].pc
	}
	for i := range m.policy {
		if m.policy[i].name == name {
			m.lastPolicy = i
			return &m.policy[i].pc
		}
	}
	m.policy = append(m.policy, policyEntry{name: name})
	m.lastPolicy = len(m.policy) - 1
	return &m.policy[m.lastPolicy].pc
}

// PolicyCountersFor returns the counters attributed to the named
// policy (zero counters when it never acted).
func (m *Metrics) PolicyCountersFor(name string) PolicyCounters {
	if m == nil {
		return PolicyCounters{}
	}
	for i := range m.policy {
		if m.policy[i].name == name {
			return m.policy[i].pc
		}
	}
	return PolicyCounters{}
}

// EdgeMove attributes n moved bytes to a directed tier edge, keyed
// "SRC->DST" by memory node name. Each moved byte lands on exactly one
// edge, so the sums over edges into and out of the near tier equal
// BytesFetched and BytesEvicted; CheckQuiescent verifies that.
func (m *Metrics) EdgeMove(key string, n int64) {
	if m == nil {
		return
	}
	if m.lastEdge < len(m.edges) && m.edges[m.lastEdge].key == key {
		m.edges[m.lastEdge].bytes += n
		return
	}
	for i := range m.edges {
		if m.edges[i].key == key {
			m.lastEdge = i
			m.edges[i].bytes += n
			return
		}
	}
	m.edges = append(m.edges, edgeEntry{key: key, bytes: n})
	m.lastEdge = len(m.edges) - 1
}

// EdgeBytes returns the byte count attributed to the src→dst edge.
func (m *Metrics) EdgeBytes(src, dst string) int64 {
	if m == nil {
		return 0
	}
	for i := range m.edges {
		if m.edges[i].key == src+"->"+dst {
			return m.edges[i].bytes
		}
	}
	return 0
}

// StageRetry records a staging attempt aborted for lack of capacity.
func (m *Metrics) StageRetry() {
	if m == nil {
		return
	}
	m.stageRetries++
}

// Pressure records a point-in-time reading of HBM usage and outstanding
// reservation, tracking the high-water marks. The owner calls it
// wherever either counter changes.
func (m *Metrics) Pressure(used, reserved int64) {
	if m == nil {
		return
	}
	if used > m.hbmHighWater {
		m.hbmHighWater = used
	}
	if reserved > m.reservedPeak {
		m.reservedPeak = reserved
	}
}

// QueueDepth records the depth of wait queue q after a push, tracking
// the high-water mark.
func (m *Metrics) QueueDepth(q, depth int) {
	if m == nil || q < 0 {
		return
	}
	for len(m.queueDepthPeak) <= q {
		m.queueDepthPeak = append(m.queueDepthPeak, 0)
	}
	if depth > m.queueDepthPeak[q] {
		m.queueDepthPeak[q] = depth
	}
}

// Inflight records PE pe's staged-but-uncompleted task count after a
// change, tracking the peak. The prefetch-depth bound itself is an
// invariant and lives on the Auditor (CheckInflight).
func (m *Metrics) Inflight(pe, depth int) {
	if m == nil || pe < 0 {
		return
	}
	for len(m.inflightPeak) <= pe {
		m.inflightPeak = append(m.inflightPeak, 0)
	}
	if depth > m.inflightPeak[pe] {
		m.inflightPeak[pe] = depth
	}
}

// Counters returns the cheap counter view.
func (m *Metrics) Counters() Counters {
	if m == nil {
		return Counters{}
	}
	return Counters{
		Fetches:         m.fetches,
		Evictions:       m.evictions,
		BytesFetched:    m.bytesFetched,
		BytesEvicted:    m.bytesEvicted,
		StageRetries:    m.stageRetries,
		ForcedEvictions: m.forcedEvictions,
		Refetches:       m.refetches,
		HBMHighWater:    m.hbmHighWater,
		ReservedPeak:    m.reservedPeak,
	}
}

// fill copies the metrics state into a snapshot.
func (m *Metrics) fill(s *Snapshot) {
	if m == nil {
		return
	}
	if m.eng != nil {
		s.Time = m.eng.Now()
	}
	s.HBMHighWater = m.hbmHighWater
	s.ReservedPeak = m.reservedPeak
	s.Fetches = m.fetches
	s.Evictions = m.evictions
	s.BytesFetched = m.bytesFetched
	s.BytesEvicted = m.bytesEvicted
	s.StageRetries = m.stageRetries
	s.ForcedEvictions = m.forcedEvictions
	s.Refetches = m.refetches
	if len(m.policy) > 0 {
		s.PolicyStats = make(map[string]PolicyCounters, len(m.policy))
		for i := range m.policy {
			s.PolicyStats[m.policy[i].name] = m.policy[i].pc
		}
	}
	if len(m.edges) > 0 {
		s.TierEdges = make(map[string]int64, len(m.edges))
		for i := range m.edges {
			s.TierEdges[m.edges[i].key] = m.edges[i].bytes
		}
	}
	s.QueueDepthPeak = append([]int(nil), m.queueDepthPeak...)
	s.InflightPeak = append([]int(nil), m.inflightPeak...)
	s.FetchHist = m.fetchHist.Clone()
	s.EvictHist = m.evictHist.Clone()
}

// Snapshot exports the metrics state alone (no audit fields). Owners
// with an Auditor use its Snapshot instead, which includes the same
// fields plus violations.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	m.fill(&s)
	return s
}
