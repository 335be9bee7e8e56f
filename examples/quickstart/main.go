// Quickstart: the smallest complete hetmem program.
//
// It builds a simulated KNL node, starts the Charm-like runtime with
// the asynchronous per-PE IO-thread strategy (the paper's best), and
// runs a toy out-of-core application: 16 chares, each owning a 1 GB
// data block — a 16 GB working set against the ~15 GB HBM budget — so
// blocks must be staged in and out of MCDRAM as tasks execute.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/hetmem/hetmem"
)

func main() {
	log.SetFlags(0)

	// A deterministic simulation of the paper's machine: Intel Xeon
	// Phi KNL 7250 in Flat/All-to-All mode (16 GB MCDRAM node 1,
	// 96 GB DDR4 node 0).
	eng := hetmem.NewEngine(1)
	mach := hetmem.KNL7250().MustBuild(eng)

	// 16 worker PEs, each with an asynchronous IO thread on its
	// hyperthread sibling (the "Multiple queues, Multiple IO threads"
	// strategy).
	rt := hetmem.NewRuntime(mach, 16, hetmem.DefaultParams())
	mgr := hetmem.NewManager(rt, hetmem.DefaultOptions(hetmem.MultiIO))

	// Declare 16 managed data blocks (the paper's CkIOHandle): 1 GB
	// each, allocated on DDR4 and moved by the runtime.
	const nChares = 16
	blocks := make([]*hetmem.Handle, nChares)
	for i := range blocks {
		blocks[i] = mgr.NewHandle(fmt.Sprintf("block[%d]", i), hetmem.GB)
	}

	// An over-decomposed chare array; each chare works on its block.
	arr := rt.NewArray("workers", nChares, func(i int) hetmem.Chare { return i }, nil)

	// The bandwidth-sensitive entry method, marked [prefetch] with a
	// declared readwrite dependence — the analogue of
	//
	//	entry [prefetch] void compute_kernel() [readwrite:A]
	done := 0
	kernel := arr.Register(hetmem.Entry{
		Name:     "compute_kernel",
		Prefetch: true,
		Deps: func(el *hetmem.Element, msg *hetmem.Message) []hetmem.DataDep {
			return []hetmem.DataDep{{Handle: blocks[el.Index], Mode: hetmem.ReadWrite}}
		},
		Fn: func(p *hetmem.Proc, pe *hetmem.PE, el *hetmem.Element, msg *hetmem.Message) {
			// Stream the block (reads+writes) with a 2 flop/byte
			// kernel; the block is guaranteed to be in HBM here.
			if blocks[el.Index].State() != hetmem.InHBM {
				log.Fatalf("chare %d ran with its block in %v", el.Index, blocks[el.Index].State())
			}
			mgr.RunKernel(p, []hetmem.DataDep{
				{Handle: blocks[el.Index], Mode: hetmem.ReadWrite},
			}, hetmem.KernelSpec{Flops: 2 * float64(hetmem.GB), TrafficScale: 1})
			done++
		},
	})

	// Kick everything off and run the virtual clock to quiescence.
	rt.Main(func(p *hetmem.Proc) { arr.Broadcast(-1, kernel, nil) })
	eng.RunAll()
	defer eng.Close()

	st := mgr.Stats
	fmt.Printf("ran %d/%d kernels in %.3f simulated seconds\n", done, nChares, eng.Now())
	fmt.Printf("prefetches: %d (%.1f GB), evictions: %d (%.1f GB)\n",
		st.Fetches, float64(st.BytesFetched)/float64(hetmem.GB),
		st.Evictions, float64(st.BytesEvicted)/float64(hetmem.GB))
	fmt.Printf("HBM peak use: %.1f GB of %.1f GB\n",
		float64(mach.HBM().PeakUsed)/float64(hetmem.GB),
		float64(mach.HBM().Cap)/float64(hetmem.GB))
}
