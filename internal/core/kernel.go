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
//
// The kernel's waits run as one sim.Proc.Drive step (kernelRun), so p
// resumes once, when the kernel is over.
func (m *Manager) RunKernel(p *sim.Proc, deps []charm.DataDep, spec KernelSpec) sim.Time {
	start := p.Now()
	scale := spec.TrafficScale
	if scale <= 0 {
		scale = 1
	}
	k := m.kernelRun()
	for _, d := range deps {
		h, ok := d.Handle.(*Handle)
		if !ok {
			panic("core: RunKernel on foreign handle")
		}
		seg := segment{h.buf.Node(), float64(h.buf.Size()) * scale}
		switch d.Mode {
		case charm.ReadOnly:
			k.reads = append(k.reads, seg)
		case charm.WriteOnly:
			k.writes = append(k.writes, seg)
		case charm.ReadWrite:
			k.reads = append(k.reads, seg)
			k.writes = append(k.writes, seg)
		}
	}
	k.p, k.start, k.flopTime = p, start, 0
	// Flop roof: a compute-bound kernel is not faster on HBM.
	if m.mach.Spec.CoreFlops > 0 && spec.Flops > 0 {
		k.flopTime = spec.Flops / m.mach.Spec.CoreFlops
	}
	k.begin()
	p.Drive(k.step)
	k.reads, k.writes, k.p = k.reads[:0], k.writes[:0], nil
	m.idleKernels = append(m.idleKernels, k)

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

// kernelRun is one RunKernel in flight, as a Drive step. Its step runs
// the blocking sequence
//
//	if len(writes) > 0 && len(reads) > 0 {
//		start the write chain
//		for each read segment: start its flow and Wait for it
//		wait for the write chain
//	} else {
//		for each read (or else write) segment: start its flow and Wait
//	}
//	if flopTime > p.Now()-start {
//		p.Sleep(flopTime - (p.Now() - start))
//	}
//
// split at its parks. The write chain streams a read-write kernel's
// writes beside its reads without a process of its own: each chain
// step starts the next write flow and registers itself as that flow's
// Then callback. The first chain step is an event at now and each later
// one an event at a flow's completion, behind the flow's waiters; a
// flow already complete at start continues the chain at once. These
// are exactly the events a process streaming the writes would schedule
// (its start, then one wake per flow it waited on), so every event
// keeps its (t, seq). Runs are pooled on the manager with both
// callbacks bound once, so a kernel allocates nothing at steady state.
type kernelRun struct {
	m    *Manager
	p    *sim.Proc
	step func() bool // advance, bound once

	reads, writes []segment
	start         sim.Time
	flopTime      sim.Time // the flop roof; zero when there is none

	// The stream the step waits on: segs in direction acc, the next
	// one to start and the flow in flight. roof is set while p sleeps
	// off the flop roof.
	segs []segment
	acc  memsim.Access
	next int
	flow *memsim.Flow
	roof bool

	// The write chain: chained is set while one runs beside the reads,
	// wnext is its next write and waiter the kernel's process, waiting
	// in the step for the chain to end.
	chained   bool
	wnext     int
	waiter    *sim.Proc
	chainStep func() // advanceChain, bound once
}

// kernelRun returns an idle kernel run, or a new one.
func (m *Manager) kernelRun() *kernelRun {
	if n := len(m.idleKernels); n > 0 {
		k := m.idleKernels[n-1]
		m.idleKernels[n-1] = nil
		m.idleKernels = m.idleKernels[:n-1]
		return k
	}
	k := &kernelRun{m: m}
	k.step, k.chainStep = k.advance, k.advanceChain
	return k
}

// begin picks the stream the step waits on and starts the write chain
// of a kernel that both reads and writes, scheduling its first step at
// now.
func (k *kernelRun) begin() {
	k.segs, k.acc, k.next = k.reads, memsim.Read, 0
	switch {
	case len(k.writes) > 0 && len(k.reads) > 0:
		k.chained, k.wnext = true, 0
		eng := k.m.rt.Engine()
		eng.Schedule(eng.Now(), k.chainStep)
	case len(k.writes) > 0:
		k.segs, k.acc = k.writes, memsim.Write
	}
}

// advance runs the kernel until p must park, and reports false, or
// until the kernel is over, and reports true.
func (k *kernelRun) advance() bool {
	p := k.p
	if k.roof {
		k.roof = false
		return true
	}
	for {
		if k.flow != nil {
			if k.flow.Await(p) {
				return false
			}
			k.flow = nil
		}
		if k.next == len(k.segs) {
			break
		}
		k.flow = k.m.startSegment(k.segs[k.next], k.acc)
		k.next++
	}
	if k.chained {
		k.waiter = p
		return false
	}
	if elapsed := p.Now() - k.start; k.flopTime > elapsed {
		p.ArmSleep(k.flopTime - elapsed)
		k.roof = true
		return false
	}
	return true
}

// advanceChain starts write flows until one is still in flight, or ends
// the chain and wakes its waiter.
func (k *kernelRun) advanceChain() {
	for k.wnext < len(k.writes) {
		f := k.m.startSegment(k.writes[k.wnext], memsim.Write)
		k.wnext++
		if !f.Done() {
			f.Then(k.chainStep)
			return
		}
	}
	k.chained = false
	if w := k.waiter; w != nil {
		k.waiter = nil
		w.Resume()
	}
}
