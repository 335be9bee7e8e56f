// Package memsim models a node-local heterogeneous memory system: a set
// of memory nodes (HBM/MCDRAM, DDR4, optionally NVM) with individual
// capacity and read/write bandwidth, shared max-min fairly among
// concurrent flows.
//
// A Flow is a byte stream (a compute kernel streaming its working set,
// or a memcpy migrating a block between nodes) that simultaneously
// consumes one or more bandwidth resources at a single rate, optionally
// capped (e.g. by a core's maximum streaming rate). Rates are assigned
// by progressive filling (max-min fairness) and recomputed at the end of
// every instant in which a flow starts or finishes, so contention
// between prefetch traffic and kernel traffic — the effect the paper's
// overlap argument depends on — falls out of the model. A start or a
// completion only integrates progress, retires drained flows and
// reserves the next completion's event slot; one fill per instant then
// computes the rates (sim.Engine.AtInstantEnd) and schedules that
// completion in the reserved slot, so events fire in the order an
// eager fill at every change would give.
//
// Filling runs once per flow class — the live flows sharing one demand
// list and one cap — rather than once per flow. Members of a class get
// identical rates under max-min fairness, and the class filling performs
// exactly the float operations per-flow filling would, so the rates are
// bit-for-bit the same; a workload of a hundred kernel flows and a few
// memcpys fills only a handful of classes.
//
// The model runs in virtual time on a sim.Engine and is fully
// deterministic.
package memsim

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/sim"
)

// NodeKind classifies a memory node.
type NodeKind int

const (
	// DDR is high-capacity, low-bandwidth far memory (DDR4 on KNL).
	// It is the zero value, so an unset far-memory kind means DDR.
	DDR NodeKind = iota
	// HBM is high-bandwidth, low-capacity in-package memory (MCDRAM on
	// KNL).
	HBM
	// NVM is non-volatile memory: both bandwidth- and
	// latency-restricted. Included for the paper's "other kinds of
	// memory heterogeneity" extension point.
	NVM
	// Remote is a disaggregated pool reached over a network or CXL
	// link (DOLMA-style). Its TotalBW models the shared link: reads
	// and writes from every client contend for the same cap.
	Remote
)

// String returns the conventional name of the kind.
func (k NodeKind) String() string {
	switch k {
	case HBM:
		return "HBM"
	case DDR:
		return "DDR"
	case NVM:
		return "NVM"
	case Remote:
		return "Remote"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// TierRank orders kinds along the memory chain, nearest (fastest,
// smallest) first: HBM < DDR < NVM < Remote. Node lookup goes through
// this ordering rather than node IDs, so the chain position of a node
// never depends on the order specs were listed in.
func (k NodeKind) TierRank() int {
	switch k {
	case HBM:
		return 0
	case DDR:
		return 1
	case NVM:
		return 2
	case Remote:
		return 3
	default:
		panic(fmt.Sprintf("memsim: no tier rank for %v", k))
	}
}

// resource is one direction of a node's memory bandwidth. The remCap
// and users fields are scratch state for the progressive-filling rate
// allocator.
type resource struct {
	name     string
	capacity float64 // bytes/second
	remCap   float64
	users    int
	seen     bool
}

// Node is a memory node with capacity and directional bandwidth.
type Node struct {
	ID      int
	Name    string
	Kind    NodeKind
	Cap     int64 // capacity in bytes
	Latency sim.Time

	read  resource
	write resource
	// total models the shared bus: every byte read or written also
	// passes through it, so mixed read/write streams (STREAM copy,
	// kernels with write-back) cannot exceed the bus rate even when
	// the directional pools individually have headroom.
	total resource

	used int64

	// Cumulative statistics.
	BytesRead    float64
	BytesWritten float64
	AllocCount   int64
	FreeCount    int64
	FailedAllocs int64
	PeakUsed     int64
}

// NodeSpec describes a memory node to attach to a System.
type NodeSpec struct {
	Name    string
	Kind    NodeKind
	Cap     int64   // bytes
	ReadBW  float64 // bytes/second
	WriteBW float64 // bytes/second
	// TotalBW caps combined read+write traffic (the memory bus). When
	// zero it defaults to ReadBW+WriteBW, i.e. directions are
	// independent.
	TotalBW float64
	Latency sim.Time // fixed per-transfer setup latency
}

// Used returns the bytes currently allocated on the node.
func (n *Node) Used() int64 { return n.used }

// Free returns the bytes still allocatable on the node.
func (n *Node) Free() int64 { return n.Cap - n.used }

// ReadBW returns the node's aggregate read bandwidth in bytes/second.
func (n *Node) ReadBW() float64 { return n.read.capacity }

// WriteBW returns the node's aggregate write bandwidth in bytes/second.
func (n *Node) WriteBW() float64 { return n.write.capacity }

// TotalBW returns the node's bus bandwidth in bytes/second.
func (n *Node) TotalBW() float64 { return n.total.capacity }

// Reserve claims size bytes of capacity. It reports false (and records a
// failed allocation) when the node cannot hold them.
func (n *Node) Reserve(size int64) bool {
	if size < 0 {
		panic("memsim: negative allocation")
	}
	if n.used+size > n.Cap {
		n.FailedAllocs++
		return false
	}
	n.used += size
	n.AllocCount++
	if n.used > n.PeakUsed {
		n.PeakUsed = n.used
	}
	return true
}

// Release returns size bytes of capacity.
func (n *Node) Release(size int64) {
	if size < 0 {
		panic("memsim: negative free")
	}
	if n.used < size {
		panic(fmt.Sprintf("memsim: freeing %d bytes with only %d used on %s", size, n.used, n.Name))
	}
	n.used -= size
	n.FreeCount++
}

// System is the set of memory nodes plus the bandwidth allocator.
type System struct {
	e     *sim.Engine
	nodes []*Node

	flows   []*Flow      // in start order; removal preserves order
	classes []*flowClass // live flow classes in first-use order
	// idleClasses holds emptied classes for classFor to reuse; a
	// finished flow may still point at one, but never reads it.
	idleClasses []*flowClass
	resources   []*resource // allocator scratch, reused across calls
	lastUpdate  sim.Time
	completion  sim.EventHandle
	// completionSeq is the engine sequence slot reserved by the last
	// change; the next fill schedules the completion event in it.
	completionSeq int64
	drained       bool // an advance drained a flow that is not retired yet
	stale         bool // the flow set changed since the last fill
	fillQueued    bool // onInstantEnd waits for the instant to end
	// onCompletion and onInstantEnd are the completion-event callback
	// and the end-of-instant fill, bound once so that scheduling and
	// registering them allocate nothing.
	onCompletion func()
	onInstantEnd func()
	stats        Stats
}

// Stats counts the bandwidth allocator's work since the system was
// created. Starts plus Completions is the number of fills an allocator
// that refilled on every change would run.
type Stats struct {
	Starts      int64 // flows started with more than byteEps bytes
	Completions int64 // completion events fired
	Fills       int64 // progressive fillings run
	FillFlows   int64 // live flows, summed over the fills
}

// NewSystem builds a memory system on e from specs. Node IDs are the
// indices into specs, matching the paper's convention (DDR4 is "memory
// node 0", HBM is "memory node 1" on flat-mode KNL).
func NewSystem(e *sim.Engine, specs []NodeSpec) *System {
	s := &System{e: e}
	s.onCompletion = func() {
		s.stats.Completions++
		s.advance()
		s.change()
	}
	s.onInstantEnd = func() {
		s.fillQueued = false
		if s.stale {
			s.fill()
		}
	}
	for i, sp := range specs {
		if sp.Cap <= 0 || sp.ReadBW <= 0 || sp.WriteBW <= 0 {
			panic(fmt.Sprintf("memsim: node %q must have positive capacity and bandwidth", sp.Name))
		}
		total := sp.TotalBW
		if total <= 0 {
			total = sp.ReadBW + sp.WriteBW
		}
		n := &Node{
			ID:      i,
			Name:    sp.Name,
			Kind:    sp.Kind,
			Cap:     sp.Cap,
			Latency: sp.Latency,
			read:    resource{name: sp.Name + ".read", capacity: sp.ReadBW},
			write:   resource{name: sp.Name + ".write", capacity: sp.WriteBW},
			total:   resource{name: sp.Name + ".bus", capacity: total},
		}
		s.nodes = append(s.nodes, n)
	}
	return s
}

// Engine returns the simulation engine the system runs on.
func (s *System) Engine() *sim.Engine { return s.e }

// Node returns the node with the given id.
func (s *System) Node(id int) *Node {
	if id < 0 || id >= len(s.nodes) {
		panic(fmt.Sprintf("memsim: no node %d", id))
	}
	return s.nodes[id]
}

// Nodes returns a copy of the node list in id order; mutating it does
// not affect the system. Use NumNodes for allocation-free sizing.
func (s *System) Nodes() []*Node { return append([]*Node(nil), s.nodes...) }

// NumNodes returns the number of nodes in the system.
func (s *System) NumNodes() int { return len(s.nodes) }

// NodeByKind returns the first node of the given kind, or nil.
func (s *System) NodeByKind(k NodeKind) *Node {
	for _, n := range s.nodes {
		if n.Kind == k {
			return n
		}
	}
	return nil
}

// Chain returns the nodes ordered near to far by tier rank (HBM first,
// then DDR, NVM, Remote), with ID order breaking ties. This, not the
// node ID, is the authoritative chain order: specs may list nodes in
// any order without swapping near and far memory.
func (s *System) Chain() []*Node {
	chain := make([]*Node, len(s.nodes))
	copy(chain, s.nodes)
	// Insertion sort: the chain has at most a handful of nodes, and a
	// stable sort keeps ID order within a rank without importing sort.
	for i := 1; i < len(chain); i++ {
		for j := i; j > 0 && chain[j].Kind.TierRank() < chain[j-1].Kind.TierRank(); j-- {
			chain[j], chain[j-1] = chain[j-1], chain[j]
		}
	}
	return chain
}

// ActiveFlows returns the number of in-flight flows.
func (s *System) ActiveFlows() int { return len(s.flows) }

// Stats returns the allocator's cumulative work counters.
func (s *System) Stats() Stats { return s.stats }
