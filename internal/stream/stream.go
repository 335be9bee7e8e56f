// Package stream implements a STREAM-style memory bandwidth benchmark
// (McCalpin) on the simulated machine: Copy, Scale, Add and Triad
// kernels executed by many concurrent cores against one memory node.
// It regenerates Figure 1 of the paper — the MCDRAM-vs-DDR4 bandwidth
// comparison that motivates the whole runtime.
package stream

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Kernel describes one STREAM kernel by its per-element array traffic.
type Kernel struct {
	Name string
	// Reads and Writes are the number of arrays read and written per
	// element operation (Copy: c=a reads 1, writes 1; Triad:
	// a=b+s*c reads 2, writes 1).
	Reads  int
	Writes int
}

// Kernels lists the four STREAM kernels in canonical order.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "Copy", Reads: 1, Writes: 1},
		{Name: "Scale", Reads: 1, Writes: 1},
		{Name: "Add", Reads: 2, Writes: 1},
		{Name: "Triad", Reads: 2, Writes: 1},
	}
}

// Result is one measured kernel bandwidth.
type Result struct {
	Kernel    string
	Node      string
	Threads   int
	Bytes     float64  // total bytes moved
	Elapsed   sim.Time // wall time
	Bandwidth float64  // bytes/second aggregate
}

// String renders the result as a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-6s %-8s %3d threads  %8.1f GB/s",
		r.Kernel, r.Node, r.Threads, r.Bandwidth/topology.GBf)
}

// Measure runs all four kernels with the given thread count against
// one memory node of a freshly built machine and returns their
// aggregate bandwidths. arrayBytes is the per-thread size of each
// STREAM array.
func Measure(spec topology.MachineSpec, nodeID, threads int, arrayBytes int64) ([]Result, error) {
	if threads <= 0 || arrayBytes <= 0 {
		return nil, fmt.Errorf("stream: need positive threads and array size")
	}
	e := sim.NewEngine(1)
	defer e.Close()
	m, err := spec.Build(e)
	if err != nil {
		return nil, err
	}
	node := m.Mem.Node(nodeID)
	var results []Result
	for _, k := range Kernels() {
		results = append(results, runKernel(e, m, node, k, threads, arrayBytes))
	}
	return results, nil
}

// runKernel executes one kernel: each thread streams its read arrays
// and write arrays concurrently, each direction capped at the core
// stream rate, and the aggregate is bytes moved over the slowest
// thread's finish time (as STREAM's OpenMP barrier semantics give).
func runKernel(e *sim.Engine, m *topology.Machine, node *memsim.Node, k Kernel, threads int, arrayBytes int64) Result {
	start := e.Now()
	var wg sim.WaitGroup
	wg.Add(threads)
	cap := m.Spec.CoreStreamBW
	for i := 0; i < threads; i++ {
		e.Spawn(fmt.Sprintf("%s-t%d", k.Name, i), func(p *sim.Proc) {
			var inner sim.WaitGroup
			if k.Writes > 0 {
				inner.Add(1)
				wb := float64(k.Writes) * float64(arrayBytes)
				p.Spawn("wr", func(q *sim.Proc) {
					f := m.Mem.StartFlow(memsim.FlowSpec{
						Bytes:   wb,
						Demands: []memsim.Demand{{Node: node, Access: memsim.Write}},
						RateCap: cap,
					})
					f.Wait(q)
					inner.Done()
				})
			}
			if k.Reads > 0 {
				f := m.Mem.StartFlow(memsim.FlowSpec{
					Bytes:   float64(k.Reads) * float64(arrayBytes),
					Demands: []memsim.Demand{{Node: node, Access: memsim.Read}},
					RateCap: cap,
				})
				f.Wait(p)
			}
			inner.Wait(p)
			wg.Done()
		})
	}
	var end sim.Time
	e.Spawn("join", func(p *sim.Proc) {
		wg.Wait(p)
		end = p.Now()
	})
	e.RunAll()
	bytes := float64(threads) * float64(k.Reads+k.Writes) * float64(arrayBytes)
	elapsed := end - start
	return Result{
		Kernel:    k.Name,
		Node:      node.Name,
		Threads:   threads,
		Bytes:     bytes,
		Elapsed:   elapsed,
		Bandwidth: bytes / elapsed,
	}
}
