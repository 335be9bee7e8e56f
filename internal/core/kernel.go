package core

import (
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

// KernelSpec describes the resource demand of one bandwidth-sensitive
// entry-method execution on one core.
type KernelSpec struct {
	// Flops is the kernel's arithmetic work; the compute roof is
	// Flops / CoreFlops.
	Flops float64
	// TrafficScale multiplies each dependence's size to get the bytes
	// the kernel actually streams (e.g. >1 when a kernel makes
	// multiple passes over its blocks).
	TrafficScale float64
}

// segment is a sequential piece of a kernel's memory traffic.
type segment struct {
	node  *memsim.Node
	bytes float64
}

// kernelSegs sizes the stack arrays RunKernel collects its segments in.
// A managed block lives on one node, so a kernel has a segment per
// dependence and direction; only a kernel with more dependences than
// this spills to the heap.
const kernelSegs = 16

// RunKernel executes the memory/compute cost model of a
// bandwidth-sensitive kernel on the calling PE's core: its read traffic
// streams sequentially from the node(s) where each dependence actually
// resides, its write traffic likewise (reads and writes overlap, each
// capped at the core's stream rate), and the total time is floored by
// the flop roof. Returns the kernel's elapsed virtual time.
//
// This is where placement becomes performance: blocks in DDR stream at
// the (contended) DDR bandwidth, blocks in HBM at HBM bandwidth — the
// 3x HBM-vs-DDR kernel gap of Fig. 2 and all Fig. 8/9 effects follow
// from it.
func (m *Manager) RunKernel(p *sim.Proc, deps []charm.DataDep, spec KernelSpec) sim.Time {
	start := p.Now()
	scale := spec.TrafficScale
	if scale <= 0 {
		scale = 1
	}
	var readBuf, writeBuf [kernelSegs]segment
	reads, writes := readBuf[:0], writeBuf[:0]
	for _, d := range deps {
		h, ok := d.Handle.(*Handle)
		if !ok {
			panic("core: RunKernel on foreign handle")
		}
		// Indexed Part access keeps the per-kernel path allocation-free.
		for i := 0; i < h.buf.NumParts(); i++ {
			part := h.buf.Part(i)
			b := float64(part.Size) * scale
			switch d.Mode {
			case charm.ReadOnly:
				reads = append(reads, segment{part.Node, b})
			case charm.WriteOnly:
				writes = append(writes, segment{part.Node, b})
			case charm.ReadWrite:
				reads = append(reads, segment{part.Node, b})
				writes = append(writes, segment{part.Node, b})
			}
		}
	}

	if len(writes) > 0 && len(reads) > 0 {
		c := m.startWriteChain(writes)
		m.stream(p, reads, memsim.Read)
		c.wait(p)
	} else if len(reads) > 0 {
		m.stream(p, reads, memsim.Read)
	} else if len(writes) > 0 {
		m.stream(p, writes, memsim.Write)
	}

	// Flop roof: a compute-bound kernel is not faster on HBM.
	if m.mach.Spec.CoreFlops > 0 && spec.Flops > 0 {
		flopTime := spec.Flops / m.mach.Spec.CoreFlops
		if elapsed := p.Now() - start; flopTime > elapsed {
			p.Sleep(flopTime - elapsed)
		}
	}
	d := p.Now() - start
	if m.rt.Observed() {
		m.noteKernel(p.ID(), spec, start, d)
	}
	return d
}

// noteKernel emits a kernel that ran in process proc from start for d,
// out of line for the reason the manager's other note helpers give.
//
//go:noinline
func (m *Manager) noteKernel(proc int, spec KernelSpec, start, d sim.Time) {
	m.rt.Emit(charm.Event{Kind: charm.EvKernel, Proc: proc, Flops: spec.Flops, Scale: spec.TrafficScale, Start: start, Dur: d})
}

// startSegment starts s as a flow in direction acc, capped at the
// core's stream rate.
func (m *Manager) startSegment(s segment, acc memsim.Access) *memsim.Flow {
	return m.mach.Mem.StartFlow(memsim.FlowSpec{
		Bytes:   s.bytes,
		Demands: []memsim.Demand{{Node: s.node, Access: acc}},
		RateCap: m.mach.Spec.CoreStreamBW,
	})
}

// stream runs segs one after another on p, waiting for each flow.
func (m *Manager) stream(p *sim.Proc, segs []segment, acc memsim.Access) {
	for _, s := range segs {
		m.startSegment(s, acc).Wait(p)
	}
}

// writeChain streams a read-write kernel's writes beside its reads
// without a process of its own. Each step starts the next write flow
// and registers itself as that flow's Then callback. The first step is
// an event at now and each later one an event at a flow's completion,
// behind the flow's waiters; a flow already complete at start continues
// the chain at once. These are exactly the events a process streaming
// the writes would schedule (its start, then one wake per flow it
// waited on), so every event keeps its (t, seq).
type writeChain struct {
	m      *Manager
	segs   []segment
	next   int
	done   bool
	waiter *sim.Proc // the kernel's process, parked in wait
	step   func()    // advance, bound once
}

// startWriteChain copies segs into an idle chain (or a new one) and
// schedules its first step at now.
func (m *Manager) startWriteChain(segs []segment) *writeChain {
	var c *writeChain
	if n := len(m.idleChains); n > 0 {
		c = m.idleChains[n-1]
		m.idleChains[n-1] = nil
		m.idleChains = m.idleChains[:n-1]
	} else {
		c = &writeChain{m: m}
		c.step = c.advance
	}
	c.segs = append(c.segs[:0], segs...)
	c.next, c.done = 0, false
	eng := m.rt.Engine()
	eng.Schedule(eng.Now(), c.step)
	return c
}

// advance starts write flows until one is still in flight, or marks the
// chain done and wakes its waiter.
func (c *writeChain) advance() {
	for c.next < len(c.segs) {
		f := c.m.startSegment(c.segs[c.next], memsim.Write)
		c.next++
		if !f.Done() {
			f.Then(c.step)
			return
		}
	}
	c.done = true
	if w := c.waiter; w != nil {
		c.waiter = nil
		w.Resume()
	}
}

// wait parks p until the chain is done, as sim.WaitGroup.Wait would,
// then returns the chain to the manager's idle list.
func (c *writeChain) wait(p *sim.Proc) {
	for !c.done {
		c.waiter = p
		p.Suspend()
	}
	c.m.idleChains = append(c.m.idleChains, c)
}
