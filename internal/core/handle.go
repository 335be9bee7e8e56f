// Package core implements the paper's primary contribution: the
// memory-heterogeneity-aware prefetch/evict layer for the Charm-like
// runtime. Data blocks are declared as Handles (the paper's CkIOHandle)
// with INHBM/INDDR state and reference counts; [prefetch]-annotated
// entry methods are intercepted at the converse scheduler, wrapped into
// OOCTasks, staged through per-PE wait queues, and admitted to run
// queues once their dependences reside in HBM. Three scheduling
// strategies are provided, matching §IV-B of the paper: a single IO
// thread (SingleIO), synchronous worker-driven fetch/evict (NoIO) and
// one asynchronous IO thread per PE (MultiIO), plus the Baseline and
// DDROnly placement modes used in the evaluation.
package core

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/numa"
	"github.com/hetmem/hetmem/internal/sim"
)

// BlockState is the residence state stored in a handle's metadata.
type BlockState int

const (
	// InDDR means the block currently resides in far memory (the
	// paper's INDDR state).
	InDDR BlockState = iota
	// InHBM means the block resides in high-bandwidth memory (INHBM).
	InHBM
	// Fetching means a fetch DDR->HBM is in flight.
	Fetching
	// Evicting means an eviction HBM->DDR is in flight.
	Evicting
)

// String names the state like the paper's constants.
func (s BlockState) String() string {
	switch s {
	case InDDR:
		return "INDDR"
	case InHBM:
		return "INHBM"
	case Fetching:
		return "FETCHING"
	case Evicting:
		return "EVICTING"
	default:
		return fmt.Sprintf("BlockState(%d)", int(s))
	}
}

// Handle is a managed data block: the runtime-level metadata object the
// paper calls CkIOHandle. It implements charm.DataHandle.
type Handle struct {
	mgr  *Manager
	id   int // dense index into the manager's handle table
	name string
	size int64

	// mu is the data-block lock; it is held across in-flight
	// migrations so concurrent fetchers/evictors of the same block
	// serialise (the paper's "data block locks").
	mu sim.Mutex

	state BlockState
	buf   *numa.Buffer
	refs  int // tasks currently scheduled/running against this block
	// claims counts staging attempts currently counting on this
	// (non-resident) block becoming resident. Only the first claimant
	// reserves HBM capacity for it, so concurrent tasks sharing
	// read-only blocks do not multiply the capacity demand.
	claims int
	// pendingUses counts enqueued-but-not-completed tasks that list
	// this block as a dependence. Eviction prefers blocks with no
	// pending uses, so data a queued task is about to need is not
	// bounced to DDR and back (matmul's accumulated C blocks and
	// shared stage panels).
	pendingUses int
	// lastUse is the virtual time at which a task depending on this
	// block most recently completed; the LRU eviction policy orders
	// victims by it.
	lastUse sim.Time

	// Stats.
	Fetches   int64
	Evictions int64
}

// BlockName returns the handle's name (charm.DataHandle).
func (h *Handle) BlockName() string { return h.name }

// Size returns the block size in bytes (charm.DataHandle).
func (h *Handle) Size() int64 { return h.size }

// State returns the current residence state.
func (h *Handle) State() BlockState { return h.state }

// Refs returns the current reference count.
func (h *Handle) Refs() int { return h.refs }

// Buffer returns the backing allocation (for kernels to derive traffic
// placement).
func (h *Handle) Buffer() *numa.Buffer { return h.buf }

// InUse reports whether any scheduled or running task references the
// block.
func (h *Handle) InUse() bool { return h.refs > 0 }

// resident reports whether the block is fully in HBM and not in
// transition.
func (h *Handle) resident() bool { return h.state == InHBM }

// pin increments the reference count ("incremented every time a task
// depending on the block is scheduled").
func (h *Handle) pin() {
	h.refs++
	h.mgr.aud.Pin(1)
	h.mgr.reindex(h)
}

// unpin decrements the reference count.
func (h *Handle) unpin() {
	if h.refs == 0 {
		panic("core: unpin of unreferenced block " + h.name)
	}
	h.refs--
	h.mgr.aud.Pin(-1)
	h.mgr.reindex(h)
}

// claim adds delta to the block's staging claims.
func (h *Handle) claim(delta int) {
	h.claims += delta
	h.mgr.aud.Claim(delta)
	h.mgr.reindex(h)
}
