// Out-of-core analytics example: a custom application (not from the
// paper) built on the public API, showing how the data-dependence
// annotations generalise beyond stencils and dgemm.
//
// A 40 GB dataset of partition blocks lives on DDR4. A wave of scan
// queries runs over every partition; each query task declares three
// dependences:
//
//   - its partition block        (readonly — shared with other queries)
//   - a dictionary block         (readonly — shared by every task)
//   - its private result block   (writeonly)
//
// The runtime stages partitions through MCDRAM ahead of the scans and
// evicts them behind, with the dictionary pinned hot by its constant
// reuse. The example prints a Projections-style activity timeline.
//
//	go run ./examples/oocanalytics
package main

import (
	"fmt"
	"log"

	"github.com/hetmem/hetmem"
)

const (
	numPartitions = 40
	partitionSize = hetmem.GB
	numQueries    = 2 // scan waves over the whole dataset
	numPEs        = 16
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oocanalytics: ")

	eng := hetmem.NewEngine(7)
	mach := hetmem.KNL7250().MustBuild(eng)
	rt := hetmem.NewRuntime(mach, numPEs, hetmem.DefaultParams())
	tracer := hetmem.NewTracer(eng, numPEs)
	rt.Attach(tracer)
	mgr := hetmem.NewManager(rt, hetmem.DefaultOptions(hetmem.MultiIO))

	dict := mgr.NewHandle("dictionary", 512<<20)
	partitions := make([]*hetmem.Handle, numPartitions)
	results := make([]*hetmem.Handle, numPartitions)
	for i := range partitions {
		partitions[i] = mgr.NewHandle(fmt.Sprintf("part[%d]", i), partitionSize)
		results[i] = mgr.NewHandle(fmt.Sprintf("res[%d]", i), 64<<20)
	}

	arr := rt.NewArray("scanners", numPartitions, func(i int) hetmem.Chare { return i }, nil)

	deps := func(el *hetmem.Element, msg *hetmem.Message) []hetmem.DataDep {
		return []hetmem.DataDep{
			{Handle: partitions[el.Index], Mode: hetmem.ReadOnly},
			{Handle: dict, Mode: hetmem.ReadOnly},
			{Handle: results[el.Index], Mode: hetmem.WriteOnly},
		}
	}

	wave := 0
	done := false
	var scan *hetmem.Entry
	barrier := rt.NewReduction(numPartitions, func() {
		wave++
		if wave < numQueries {
			arr.Broadcast(-1, scan, wave)
		} else {
			done = true
		}
	})
	scan = arr.Register(hetmem.Entry{
		Name:     "scan_partition",
		Prefetch: true,
		Deps:     deps,
		Fn: func(p *hetmem.Proc, pe *hetmem.PE, el *hetmem.Element, msg *hetmem.Message) {
			// A predicate scan: ~1 flop per byte over the partition
			// plus dictionary lookups.
			mgr.RunKernel(p, deps(el, msg), hetmem.KernelSpec{
				Flops:        float64(partitionSize),
				TrafficScale: 1,
			})
			barrier.Contribute()
		},
	})

	rt.Main(func(p *hetmem.Proc) { arr.Broadcast(-1, scan, 0) })
	eng.RunAll()
	defer eng.Close()
	if !done {
		log.Fatal("analytics run did not complete")
	}

	st := mgr.Stats
	fmt.Printf("scanned %d GB x %d waves in %.2f simulated seconds\n",
		numPartitions*int(partitionSize>>30), numQueries, eng.Now())
	fmt.Printf("prefetches: %d (%.1f GB), dictionary fetched %d time(s)\n",
		st.Fetches, float64(st.BytesFetched)/float64(hetmem.GB), dict.Fetches)
	fmt.Println()
	fmt.Println(tracer.Timeline(100))
}
