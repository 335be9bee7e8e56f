package cluster

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// StencilResult is one distributed run's outcome.
type StencilResult struct {
	Nodes int
	// Total is the wall time of all iterations (global virtual time).
	Total sim.Time
	// AvgIter is the mean iteration time across the whole cluster.
	AvgIter sim.Time
	// NetBytes is the total halo traffic.
	NetBytes float64
	// NetMessages is the halo message count.
	NetMessages int64
}

// nodeState tracks one node's halo synchronisation for one iteration
// boundary.
type nodeState struct {
	app      *kernels.StencilApp
	resume   func()
	haloSeen int
	haloWant int
}

// RunStencil runs a distributed Stencil3D to completion and returns
// cluster-level timings. Every node runs perNode on its own subdomain
// (weak scaling) and, at each iteration boundary, exchanges one chare
// block per face with its ±1 neighbours (1-D node decomposition). Node
// i's state is touched solely by events on node i's engine, which is
// what makes the windows safe.
func RunStencil(c *Cluster, perNode kernels.StencilConfig) (*StencilResult, error) {
	n := len(c.Nodes)
	halo := float64(perNode.ChareBytes())
	states := make([]*nodeState, n)

	// tryResume continues node i's next iteration once its local
	// barrier has fired AND both halos arrived.
	tryResume := func(i int) {
		st := states[i]
		if st.resume != nil && st.haloSeen >= st.haloWant {
			r := st.resume
			st.resume = nil
			st.haloSeen -= st.haloWant
			r()
		}
	}

	for i, nd := range c.Nodes {
		i := i
		app, err := kernels.NewStencil(nd.MG, perNode)
		if err != nil {
			return nil, err
		}
		st := &nodeState{app: app}
		var neighbours []int
		if i > 0 {
			neighbours = append(neighbours, i-1)
		}
		if i < n-1 {
			neighbours = append(neighbours, i+1)
		}
		st.haloWant = len(neighbours)
		states[i] = st
		app.OnIteration = func(iter int, resume func()) {
			st.resume = resume
			// "send updated data to neighbors" across the fabric.
			for _, nb := range neighbours {
				nb := nb
				c.Send(i, nb, halo, func() {
					states[nb].haloSeen++
					tryResume(nb)
				})
			}
			tryResume(i)
		}
	}

	for _, st := range states {
		st.app.Start()
	}
	c.Run()
	for i, st := range states {
		if !st.app.Done() {
			return nil, fmt.Errorf("cluster: node %d deadlocked after %d/%d iterations",
				i, len(st.app.IterEnd), perNode.Iterations)
		}
	}
	var end sim.Time
	for _, st := range states {
		if t := st.app.IterEnd[len(st.app.IterEnd)-1]; t > end {
			end = t
		}
	}
	return &StencilResult{
		Nodes:       n,
		Total:       end,
		AvgIter:     end / sim.Time(perNode.Iterations),
		NetBytes:    c.Stats.Bytes,
		NetMessages: c.Stats.Messages,
	}, nil
}
