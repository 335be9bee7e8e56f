package core

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/sim"
)

// EvictPolicy orders eviction candidates: it ranks the dead resident
// blocks (InHBM, unreferenced, unclaimed), and makeRoom evicts them
// best-victim-first until the requested capacity fits, so the policy
// decides which resident data is bounced to DDR under pressure — and
// therefore how much of it must be fetched back (§IV's eviction step,
// generalised from the implicit declaration-order reclaim of the
// original runtime).
//
// A policy ranks through a key: makeRoom takes victims in ascending
// Key order, declaration order breaking ties. makeRoom has already
// filtered out in-use, claimed and in-transition blocks, and eviction
// re-checks every condition under the block lock, so a policy only
// chooses order — it can neither add victims nor veto them.
type EvictPolicy interface {
	// Name is the stable identifier used in flags, metrics and
	// snapshots.
	Name() string
	// LooksAhead reports whether Key reads its nextUse argument. Only
	// then does makeRoom resolve next uses: 0 means a created-or-staged
	// task needs the block imminently, k > 0 means its first consumer
	// sits k deep in a wait queue, NoNextUse means no enqueued task lists
	// it. The first block with pending uses walks the strategy's wait
	// queues under their locks, once per ranking.
	LooksAhead() bool
	// Key ranks h as a victim; smaller keys are evicted first. nextUse
	// is h's next use when LooksAhead reports true, else NoNextUse. Key
	// is called for every candidate after every next use is resolved,
	// and must not block.
	Key(h *Handle, nextUse int) VictimKey
	// DemoteTarget picks the tier a victim moves to on chains deeper
	// than two: the bottom of the chain, or the tier just below HBM.
	// On a two-tier machine the two coincide, so every policy behaves
	// identically there.
	DemoteTarget() DemoteTarget
}

// VictimKey is a candidate's rank as a victim: makeRoom compares Major,
// then Minor, then declaration order.
type VictimKey struct {
	Major int
	Minor sim.Time
}

// DemoteTarget is an EvictPolicy's landing tier for evictions.
type DemoteTarget int

const (
	// DemoteBottom sends victims to the deepest tier — the paper's
	// "back to far memory" rule, and the cheapest write when the
	// victim is truly dead.
	DemoteBottom DemoteTarget = iota
	// DemoteNext sends victims one level below HBM, so a block that
	// returns pays the cheapest possible miss. Used by Lookahead,
	// which has the dependence information to know most of its
	// victims return.
	DemoteNext
)

// String names the target for tables and snapshots.
func (t DemoteTarget) String() string {
	if t == DemoteNext {
		return "next"
	}
	return "bottom"
}

// NoNextUse is the lookahead distance of a block no enqueued task
// declares as a dependence.
const NoNextUse = int(^uint(0) >> 1)

// The built-in policies, as comparable singletons so Options values
// still compare with ==.
var (
	// DeclOrder evicts dead blocks in declaration order, preferring
	// blocks with no pending uses. Pass 1 of makeRoom is byte-for-byte
	// the original runtime's reclaim; the preference fixes the forced
	// pass, which used to evict a pending-use block even when a
	// later-declared truly-dead block would have freed the space.
	DeclOrder EvictPolicy = declOrder{}
	// LRU evicts the block whose last completed use is oldest in
	// virtual time (Handle.lastUse, stamped at task completion), the
	// classic recency heuristic.
	LRU EvictPolicy = lru{}
	// Lookahead evicts the block whose next declared use is farthest
	// away, consulting pendingUses and the wait queues — Belady's rule
	// over the dependence information the runtime already has.
	Lookahead EvictPolicy = lookahead{}
)

// EvictPolicies lists the built-in policies in presentation order.
func EvictPolicies() []EvictPolicy {
	return []EvictPolicy{DeclOrder, LRU, Lookahead}
}

// ParseEvictPolicy resolves a policy name from a flag value.
func ParseEvictPolicy(name string) (EvictPolicy, error) {
	for _, p := range EvictPolicies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: unknown eviction policy %q (want decl, lru or lookahead)", name)
}

type declOrder struct{}

func (declOrder) Name() string { return "decl" }

// Declaration order knows nothing about reuse, so victims drop all the
// way down (the original runtime's rule).
func (declOrder) DemoteTarget() DemoteTarget { return DemoteBottom }

func (declOrder) LooksAhead() bool { return false }

// Key partitions: truly-dead blocks first, pending-use blocks last,
// declaration order within each class. makeRoom takes this order from
// its dead index's bits without calling Key.
func (declOrder) Key(h *Handle, _ int) VictimKey {
	if h.pendingUses > 0 {
		return VictimKey{Major: 1}
	}
	return VictimKey{}
}

type lru struct{}

func (lru) Name() string { return "lru" }

// Recency says a cold block stays cold; demote fully.
func (lru) DemoteTarget() DemoteTarget { return DemoteBottom }

func (lru) LooksAhead() bool { return false }

// Key puts the oldest last use first; declaration order breaks ties
// (blocks never used complete with lastUse zero and go first).
func (lru) Key(h *Handle, _ int) VictimKey { return VictimKey{Minor: h.lastUse} }

type lookahead struct{}

func (lookahead) Name() string { return "lookahead" }

// Lookahead evicts exactly the blocks whose next use is farthest — but
// in the cyclic programs this runtime hosts they do come back, so it
// parks victims one tier down where the refetch edge is cheapest. The
// advantage over full demotion grows with every tier the chain adds.
func (lookahead) DemoteTarget() DemoteTarget { return DemoteNext }

func (lookahead) LooksAhead() bool { return true }

// Key puts the farthest next declared use first. Ties (NoNextUse in
// particular) break by last use, most recent first: the queues only
// show the current iteration, and in the iterative programs this
// runtime hosts, a block released longest ago is the one coming back
// soonest next iteration. Declaration order breaks ties among dead
// blocks to Belady's worst case on a cyclic sweep — every victim is
// refetched before the blocks kept.
func (lookahead) Key(h *Handle, nextUse int) VictimKey {
	return VictimKey{Major: -nextUse, Minor: -h.lastUse}
}
