// Package numa provides a libnuma-like allocation API over the
// simulated memory system: AllocOnNode/Free with placement policies
// (bind, preferred, interleave) plus the alloc-copy-free migration
// routine the paper uses to move data blocks between MCDRAM and DDR4
// ("create space in destination memory and then move the data ...
// copy to destination and then freeing the source").
//
// Node numbering follows the paper's flat-mode KNL convention: DDR4 is
// memory node 0, HBM (MCDRAM) is memory node 1.
package numa

import (
	"errors"
	"fmt"

	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

// ErrNoSpace is returned when an allocation cannot be satisfied on the
// requested node(s).
var ErrNoSpace = errors.New("numa: insufficient capacity on requested node")

// ErrFreed is returned when operating on an already-freed buffer.
var ErrFreed = errors.New("numa: buffer already freed")

// Policy selects where an Alloc places data, mirroring numactl
// policies.
type Policy int

const (
	// Bind allocates strictly on the given node and fails when full
	// (numactl --membind).
	Bind Policy = iota
	// Preferred allocates on the given node, overflowing to the other
	// nodes in id order when full (numactl --preferred). This is the
	// paper's Naive/Baseline placement.
	Preferred
	// Interleave spreads the allocation evenly across all nodes with
	// space (numactl --interleave).
	Interleave
)

// String returns the numactl-style name of the policy.
func (p Policy) String() string {
	switch p {
	case Bind:
		return "membind"
	case Preferred:
		return "preferred"
	case Interleave:
		return "interleave"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Part is a contiguous portion of a buffer resident on one node.
type Part struct {
	Node *memsim.Node
	Size int64
}

// Buffer is an allocated region, possibly spread over several nodes
// (under Interleave or Preferred overflow).
type Buffer struct {
	a     *Allocator
	parts []Part
	size  int64
	freed bool
}

// Allocator tracks allocations against a memory system.
type Allocator struct {
	sys *memsim.System

	// MemcpyRateCap bounds the rate of a single migration memcpy in
	// bytes/second (one thread cannot saturate a memory controller by
	// itself). Zero means uncapped.
	MemcpyRateCap float64

	// MigrateOpCost is a fixed virtual-time charge per Migrate call:
	// the destination allocation (mmap + first-touch faults), source
	// free and bookkeeping around the memcpy itself.
	MigrateOpCost sim.Time

	// Statistics.
	LiveBuffers    int
	TotalAllocs    int64
	TotalFrees     int64
	BytesMigrated  float64
	MigrationTime  sim.Time
	MigrationCount int64

	// joins holds finished memcpy joins for Memcpy to reuse.
	joins []*copyJoin
}

// copyJoin waits for the flows of one Memcpy as a sim.WaitGroup would,
// but it is reused across copies and its completion callback is bound
// once, so a copy allocates neither a WaitGroup nor a callback per flow.
type copyJoin struct {
	n      int       // flows still in flight
	waiter *sim.Proc // the copying process, parked in wait
	done   func()    // flowDone, bound once
}

// flowDone counts one flow complete, waking the waiter after the last.
func (j *copyJoin) flowDone() {
	j.n--
	if j.n == 0 && j.waiter != nil {
		w := j.waiter
		j.waiter = nil
		w.Resume()
	}
}

// New returns an allocator over sys.
func New(sys *memsim.System) *Allocator { return &Allocator{sys: sys} }

// System returns the underlying memory system.
func (a *Allocator) System() *memsim.System { return a.sys }

// AllocOnNode allocates size bytes strictly on the node with the given
// id (numa_alloc_onnode). It fails with ErrNoSpace when the node cannot
// hold the allocation.
func (a *Allocator) AllocOnNode(size int64, node int) (*Buffer, error) {
	n, err := a.reserveOn(size, node)
	if err != nil {
		return nil, err
	}
	return &Buffer{a: a, size: size, parts: []Part{{Node: n, Size: size}}}, nil
}

// reserveOn claims size bytes on the node with the given id and counts
// the claim as a live allocation, or fails with ErrNoSpace.
func (a *Allocator) reserveOn(size int64, node int) (*memsim.Node, error) {
	n := a.sys.Node(node)
	if !n.Reserve(size) {
		return nil, fmt.Errorf("%w: %d bytes on %s (%d free)", ErrNoSpace, size, n.Name, n.Free())
	}
	return n, a.noteAlloc()
}

// Alloc allocates size bytes according to policy. node names the target
// node for Bind and Preferred and is ignored for Interleave.
func (a *Allocator) Alloc(size int64, policy Policy, node int) (*Buffer, error) {
	switch policy {
	case Bind:
		return a.AllocOnNode(size, node)
	case Preferred:
		return a.allocPreferred(size, node)
	case Interleave:
		return a.allocInterleave(size)
	default:
		return nil, fmt.Errorf("numa: unknown policy %v", policy)
	}
}

// allocPreferred fills the preferred node first and overflows the
// remainder to the other nodes in id order.
func (a *Allocator) allocPreferred(size int64, node int) (*Buffer, error) {
	order := []*memsim.Node{a.sys.Node(node)}
	for _, n := range a.sys.Nodes() {
		if n.ID != node {
			order = append(order, n)
		}
	}
	var parts []Part
	left := size
	for _, n := range order {
		if left == 0 {
			break
		}
		take := n.Free()
		if take > left {
			take = left
		}
		if take <= 0 {
			continue
		}
		if !n.Reserve(take) {
			continue
		}
		parts = append(parts, Part{Node: n, Size: take})
		left -= take
	}
	if left > 0 {
		for _, p := range parts {
			p.Node.Release(p.Size)
		}
		return nil, fmt.Errorf("%w: %d bytes under preferred policy", ErrNoSpace, size)
	}
	return &Buffer{a: a, size: size, parts: parts, freed: false}, a.noteAlloc()
}

// allocInterleave spreads size evenly over all nodes, proportionally
// shrinking shares for nodes without room.
func (a *Allocator) allocInterleave(size int64) (*Buffer, error) {
	nodes := a.sys.Nodes()
	share := size / int64(len(nodes))
	var parts []Part
	left := size
	for i, n := range nodes {
		take := share
		if i == len(nodes)-1 {
			take = left
		}
		if take > n.Free() {
			take = n.Free()
		}
		if take <= 0 {
			continue
		}
		if !n.Reserve(take) {
			continue
		}
		parts = append(parts, Part{Node: n, Size: take})
		left -= take
	}
	// Second pass: push any remainder wherever there is room.
	for _, n := range nodes {
		if left == 0 {
			break
		}
		take := n.Free()
		if take > left {
			take = left
		}
		if take <= 0 {
			continue
		}
		if !n.Reserve(take) {
			continue
		}
		parts = append(parts, Part{Node: n, Size: take})
		left -= take
	}
	if left > 0 {
		for _, p := range parts {
			p.Node.Release(p.Size)
		}
		return nil, fmt.Errorf("%w: %d bytes under interleave policy", ErrNoSpace, size)
	}
	return &Buffer{a: a, size: size, parts: parts}, a.noteAlloc()
}

func (a *Allocator) noteAlloc() error {
	a.LiveBuffers++
	a.TotalAllocs++
	return nil
}

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Parts returns a copy of the buffer's per-node layout; mutating it
// does not affect the buffer. Hot paths iterate with NumParts/Part to
// avoid the per-call allocation.
func (b *Buffer) Parts() []Part { return append([]Part(nil), b.parts...) }

// NumParts returns the number of layout parts.
func (b *Buffer) NumParts() int { return len(b.parts) }

// Part returns the i-th layout part by value.
func (b *Buffer) Part(i int) Part { return b.parts[i] }

// Freed reports whether the buffer has been freed.
func (b *Buffer) Freed() bool { return b.freed }

// OnNode reports whether the whole buffer resides on the node with the
// given id.
func (b *Buffer) OnNode(id int) bool {
	return len(b.parts) == 1 && b.parts[0].Node.ID == id
}

// BytesOn returns how many of the buffer's bytes live on node id.
func (b *Buffer) BytesOn(id int) int64 {
	var total int64
	for _, p := range b.parts {
		if p.Node.ID == id {
			total += p.Size
		}
	}
	return total
}

// Free releases the buffer's capacity (numa_free). Double-free returns
// ErrFreed.
func (b *Buffer) Free() error {
	if b.freed {
		return ErrFreed
	}
	b.a.release(b.parts)
	b.freed = true
	return nil
}

// release returns the capacity of parts to their nodes and counts one
// free.
func (a *Allocator) release(parts []Part) {
	for _, p := range parts {
		p.Node.Release(p.Size)
	}
	a.LiveBuffers--
	a.TotalFrees++
}

// Memcpy copies src's contents into dst in virtual time, charging source
// read and destination write bandwidth for each (src part × dst part)
// overlap. Both buffers must be live and the same size. It returns the
// elapsed time.
func (a *Allocator) Memcpy(p *sim.Proc, dst, src *Buffer) (sim.Time, error) {
	if dst.freed || src.freed {
		return 0, ErrFreed
	}
	if dst.size != src.size {
		return 0, fmt.Errorf("numa: memcpy size mismatch (%d vs %d)", dst.size, src.size)
	}
	t0 := p.Now()
	a.copyParts(p, dst.parts, src.parts)
	return p.Now() - t0, nil
}

// copyParts copies between two part layouts of the same size. It walks
// both part lists in tandem, emitting one flow per (src-part, dst-part)
// overlap; flows run in parallel and the copy completes when all do.
func (a *Allocator) copyParts(p *sim.Proc, dst, src []Part) {
	var j *copyJoin
	if n := len(a.joins); n > 0 {
		j = a.joins[n-1]
		a.joins[n-1] = nil
		a.joins = a.joins[:n-1]
	} else {
		j = &copyJoin{}
		j.done = j.flowDone
	}
	si, di := 0, 0
	sOff, dOff := int64(0), int64(0)
	lat := sim.Time(0)
	for si < len(src) && di < len(dst) {
		sp, dp := src[si], dst[di]
		chunk := sp.Size - sOff
		if r := dp.Size - dOff; r < chunk {
			chunk = r
		}
		if l := sp.Node.Latency + dp.Node.Latency; l > lat {
			lat = l
		}
		j.n++
		a.sys.StartFlow(memsim.FlowSpec{
			Bytes: float64(chunk),
			Demands: []memsim.Demand{
				{Node: sp.Node, Access: memsim.Read},
				{Node: dp.Node, Access: memsim.Write},
			},
			RateCap: a.MemcpyRateCap,
		}).Then(j.done)
		sOff += chunk
		dOff += chunk
		if sOff == sp.Size {
			si++
			sOff = 0
		}
		if dOff == dp.Size {
			di++
			dOff = 0
		}
	}
	if lat > 0 {
		p.Sleep(lat)
	}
	for j.n > 0 {
		j.waiter = p
		p.Suspend()
	}
	a.joins = append(a.joins, j)
}

// Migrate moves a live buffer to the given node using the paper's
// routine: allocate a same-sized destination buffer, memcpy, free the
// source. On success the buffer's layout is updated in place. A buffer
// already entirely on the target node migrates in zero time.
//
// The destination is a capacity claim and a one-part layout rather
// than a Buffer of its own: it counts as a live allocation from the
// claim until it folds into b, as AllocOnNode's buffer would, and the
// new layout reuses b's parts slice.
func (a *Allocator) Migrate(p *sim.Proc, b *Buffer, node int) (sim.Time, error) {
	if b.freed {
		return 0, ErrFreed
	}
	if b.OnNode(node) {
		return 0, nil
	}
	// Claim the destination before charging the fixed op cost: the
	// capacity claim must be visible to other processes at the instant
	// the caller's staging reservation is consumed, or two concurrent
	// migrations can both see the same free space during the op-cost
	// sleep and over-commit the target node.
	n, err := a.reserveOn(b.size, node)
	if err != nil {
		return 0, err
	}
	dst := [1]Part{{Node: n, Size: b.size}}
	if a.MigrateOpCost > 0 {
		p.Sleep(a.MigrateOpCost)
	}
	if b.freed {
		// The copy cannot run: free the destination.
		a.release(dst[:])
		return 0, ErrFreed
	}
	t0 := p.Now()
	a.copyParts(p, dst[:], b.parts)
	d := p.Now() - t0 + a.MigrateOpCost
	// Free the old location and adopt the new one. The free counted is
	// the destination's: its identity dissolves into b.
	a.release(b.parts)
	b.parts = append(b.parts[:0], dst[0])
	a.BytesMigrated += float64(b.size)
	a.MigrationTime += d
	a.MigrationCount++
	return d, nil
}
