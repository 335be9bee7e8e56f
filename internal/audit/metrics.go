package audit

import (
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/sim"
)

// PolicyCounters attributes eviction activity to the victim-selection
// policy that was active when it happened, so policy switches mid-run
// (the adaptive controller's victim-upgrade rule) keep a before/after
// split and fixed-policy runs get per-policy totals to compare.
type PolicyCounters struct {
	Evictions       int64 `json:"evictions"`
	ForcedEvictions int64 `json:"forced_evictions"`
	Refetches       int64 `json:"refetches"`
}

// Metrics is the metrics half of the audit layer, split out of the
// invariant Auditor so runtime feedback can be collected without the
// shadow ledger and its conservation checks. It is a view of the
// runtime's event stream (attach it with charm.Runtime.Attach) and
// keeps only what the manager's own Stats do not: the fetch and evict
// duration histograms, the per-policy split, and the HBM, reservation,
// queue-depth and inflight peaks.
//
// The Auditor holds a *Metrics and fills snapshots from it; enabling
// audit therefore always enables metrics, but not vice versa.
type Metrics struct {
	eng *sim.Engine

	hbmHighWater   int64
	reservedPeak   int64
	queueDepthPeak []int
	inflightPeak   []int
	fetchHist      Histogram
	evictHist      Histogram
	// policy attributes evictions to victim-selection policies. A run
	// uses a handful of policy names at most, and the active one
	// repeats for long stretches, so a first-use-order slice with a
	// last-hit memo beats a map lookup per eviction event.
	policy     []policyEntry
	lastPolicy int
}

// policyEntry pairs a policy name with its counters in first-use order.
type policyEntry struct {
	name string
	pc   PolicyCounters
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

// Observe implements charm.Sink.
func (m *Metrics) Observe(e charm.Event) {
	switch e.Kind {
	case charm.EvFetchEnd:
		m.fetchHist.observe(e.Dur)
		if e.Refetch {
			m.policyCounters(e.Policy).Refetches++
		}
	case charm.EvEvict:
		m.evictHist.observe(e.Dur)
		pc := m.policyCounters(e.Policy)
		pc.Evictions++
		if e.Forced {
			pc.ForcedEvictions++
		}
	case charm.EvPressure:
		m.hbmHighWater = max(m.hbmHighWater, e.Used)
		m.reservedPeak = max(m.reservedPeak, e.Reserved)
	case charm.EvQueueDepth:
		m.queueDepthPeak = raisePeak(m.queueDepthPeak, e.Lane, e.N)
	case charm.EvInflight:
		m.inflightPeak = raisePeak(m.inflightPeak, e.Lane, e.N)
	}
}

// raisePeak raises peaks[i] to n, growing peaks to hold index i.
func raisePeak(peaks []int, i, n int) []int {
	if i < 0 {
		return peaks
	}
	for len(peaks) <= i {
		peaks = append(peaks, 0)
	}
	peaks[i] = max(peaks[i], n)
	return peaks
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

// HBMHighWater returns the most HBM bytes in use at any sample.
func (m *Metrics) HBMHighWater() int64 {
	if m == nil {
		return 0
	}
	return m.hbmHighWater
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
	if len(m.policy) > 0 {
		s.PolicyStats = make(map[string]PolicyCounters, len(m.policy))
		for i := range m.policy {
			s.PolicyStats[m.policy[i].name] = m.policy[i].pc
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
