// Package numa provides a libnuma-like allocation API over the
// simulated memory system: AllocOnNode/Free (numa_alloc_onnode,
// numa_free) plus the alloc-copy-free migration routine the paper uses
// to move data blocks between MCDRAM and DDR4 ("create space in
// destination memory and then move the data ... copy to destination and
// then freeing the source"). A buffer lives on one node, and a copy
// moves it whole with one memcpy flow.
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
// requested node.
var ErrNoSpace = errors.New("numa: insufficient capacity on requested node")

// ErrFreed is returned when operating on an already-freed buffer.
var ErrFreed = errors.New("numa: buffer already freed")

// Buffer is an allocated region on one node.
type Buffer struct {
	a     *Allocator
	node  *memsim.Node
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

	// joins holds finished memcpy joins for copy to reuse.
	joins []*copyJoin
}

// copyJoin parks a copying process until its memcpy flow completes. It
// is reused across copies and its completion callback is bound once, so
// a copy allocates no callback.
type copyJoin struct {
	done   bool      // the flow has completed
	waiter *sim.Proc // the copying process, parked in copy
	fn     func()    // flowDone, bound once
}

// flowDone marks the flow complete and wakes the waiter.
func (j *copyJoin) flowDone() {
	j.done = true
	if w := j.waiter; w != nil {
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
	return &Buffer{a: a, node: n, size: size}, nil
}

// reserveOn claims size bytes on the node with the given id and counts
// the claim as a live allocation, or fails with ErrNoSpace.
func (a *Allocator) reserveOn(size int64, node int) (*memsim.Node, error) {
	n := a.sys.Node(node)
	if !n.Reserve(size) {
		return nil, fmt.Errorf("%w: %d bytes on %s (%d free)", ErrNoSpace, size, n.Name, n.Free())
	}
	a.LiveBuffers++
	a.TotalAllocs++
	return n, nil
}

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Node returns the node holding the buffer.
func (b *Buffer) Node() *memsim.Node { return b.node }

// OnNode reports whether the buffer resides on the node with the given
// id.
func (b *Buffer) OnNode(id int) bool { return b.node.ID == id }

// Free releases the buffer's capacity (numa_free). Double-free returns
// ErrFreed.
func (b *Buffer) Free() error {
	if b.freed {
		return ErrFreed
	}
	b.a.release(b.node, b.size)
	b.freed = true
	return nil
}

// release returns size bytes of capacity to node and counts one free.
func (a *Allocator) release(node *memsim.Node, size int64) {
	node.Release(size)
	a.LiveBuffers--
	a.TotalFrees++
}

// Memcpy copies src's contents into dst in virtual time, charging source
// read and destination write bandwidth. Both buffers must be live and the
// same size. It returns the elapsed time.
func (a *Allocator) Memcpy(p *sim.Proc, dst, src *Buffer) (sim.Time, error) {
	if dst.freed || src.freed {
		return 0, ErrFreed
	}
	if dst.size != src.size {
		return 0, fmt.Errorf("numa: memcpy size mismatch (%d vs %d)", dst.size, src.size)
	}
	t0 := p.Now()
	var c copying
	a.startCopy(&c, dst.node, src.node, src.size)
	for !a.copyStep(p, &c) {
		p.Suspend()
	}
	return p.Now() - t0, nil
}

// copying is a memcpy in progress: one flow from src to dst, then the
// copier's sleep through both nodes' latency, then its wait for the
// flow's completion callback.
type copying struct {
	j     *copyJoin
	lat   sim.Time // both nodes' latency, slept once the flow starts
	slept bool
}

// startCopy starts moving size bytes from node src to node dst as one
// flow, whose completion c's join records.
func (a *Allocator) startCopy(c *copying, dst, src *memsim.Node, size int64) {
	var j *copyJoin
	if n := len(a.joins); n > 0 {
		j = a.joins[n-1]
		a.joins[n-1] = nil
		a.joins = a.joins[:n-1]
	} else {
		j = &copyJoin{}
		j.fn = j.flowDone
	}
	a.sys.StartFlow(memsim.FlowSpec{
		Bytes: float64(size),
		Demands: []memsim.Demand{
			{Node: src, Access: memsim.Read},
			{Node: dst, Access: memsim.Write},
		},
		RateCap: a.MemcpyRateCap,
	}).Then(j.fn)
	*c = copying{j: j, lat: src.Latency + dst.Latency}
}

// copyStep takes p's copy c one step on: it arms the latency sleep, or
// registers p with the join while the flow is in flight, and reports
// false while p must park, then releases the join and reports true.
func (a *Allocator) copyStep(p *sim.Proc, c *copying) bool {
	if !c.slept {
		c.slept = true
		if c.lat > 0 {
			p.ArmSleep(c.lat)
			return false
		}
	}
	if j := c.j; !j.done {
		j.waiter = p
		return false
	}
	c.j.done = false
	a.joins = append(a.joins, c.j)
	c.j = nil
	return true
}

// Migrate moves a live buffer to the given node using the paper's
// routine: allocate a same-sized destination, memcpy, free the source.
// On success the buffer lives on the new node. A buffer already on the
// target node migrates in zero time.
//
// The destination is a capacity claim rather than a Buffer of its own:
// it counts as a live allocation from the claim until it folds into b,
// as AllocOnNode's buffer would.
func (a *Allocator) Migrate(p *sim.Proc, b *Buffer, node int) (sim.Time, error) {
	var mg Migration
	mg.Start(a, b, node)
	for !mg.Step(p) {
		p.Suspend()
	}
	return mg.Result()
}

// Migration is a Migrate in progress, for a sim.Proc.Drive step: Start
// it, call Step until it reports true, then read Result. Migrate loops
// over it, so a stepped migration's claim, op-cost sleep, copy and
// release are Migrate's, event for event. A Migration serves migration
// after migration.
type Migration struct {
	a    *Allocator
	b    *Buffer
	node int
	at   migStage
	dst  *memsim.Node // the destination's capacity claim
	cp   copying
	t0   sim.Time
	d    sim.Time
	err  error
}

// migStage is where a Migration is in its sequence.
type migStage uint8

const (
	migClaim migStage = iota // claim the destination
	migCopy                  // back from the op-cost sleep: start the copy
	migWait                  // the copy is under way
)

// Start sets mg to move b to the node with the given id; it does
// nothing until the first Step.
func (mg *Migration) Start(a *Allocator, b *Buffer, node int) {
	*mg = Migration{a: a, b: b, node: node}
}

// Step runs the migration for p until p must park, and reports false
// (its wake is arranged), or until it is over, and reports true.
func (mg *Migration) Step(p *sim.Proc) bool {
	a, b := mg.a, mg.b
	switch mg.at {
	case migClaim:
		if b.freed {
			mg.err = ErrFreed
			return true
		}
		if b.OnNode(mg.node) {
			return true
		}
		// Claim the destination before charging the fixed op cost:
		// the capacity claim must be visible to other processes at
		// the instant the caller's staging reservation is consumed,
		// or two concurrent migrations can both see the same free
		// space during the op-cost sleep and over-commit the target
		// node.
		dst, err := a.reserveOn(b.size, mg.node)
		if err != nil {
			mg.err = err
			return true
		}
		mg.dst, mg.at = dst, migCopy
		if a.MigrateOpCost > 0 {
			p.ArmSleep(a.MigrateOpCost)
			return false
		}
		fallthrough
	case migCopy:
		if b.freed {
			break
		}
		mg.t0 = p.Now()
		a.startCopy(&mg.cp, mg.dst, b.node, b.size)
		mg.at = migWait
		fallthrough
	case migWait:
		if !a.copyStep(p, &mg.cp) {
			return false
		}
		mg.d = p.Now() - mg.t0 + a.MigrateOpCost
	}
	if b.freed {
		// Freed during the op cost or the copy: Free released the
		// source, so only the destination is left to free.
		a.release(mg.dst, b.size)
		mg.d, mg.err = 0, ErrFreed
		return true
	}
	// Free the old location and adopt the new one. The free counted is
	// the destination's: its identity dissolves into b.
	a.release(b.node, b.size)
	b.node = mg.dst
	a.BytesMigrated += float64(b.size)
	a.MigrationTime += mg.d
	a.MigrationCount++
	return true
}

// Result returns an ended migration's elapsed time and error, as
// Migrate returns them.
func (mg *Migration) Result() (sim.Time, error) { return mg.d, mg.err }
