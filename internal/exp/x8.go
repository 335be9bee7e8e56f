package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/cluster"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X8: multi-node cluster (the paper's last future-work item) ---

// ClusterRow is one node-count point of the weak-scaling sweep.
type ClusterRow struct {
	Nodes      int
	NaiveIter  sim.Time
	MultiIter  sim.Time
	Speedup    float64
	HaloBytes  float64
	WeakSlowdn float64 // MultiIO iter time vs 1 node
}

// ClusterResult is experiment X8: the distributed Stencil3D under weak
// scaling ("we will also perform comparisons ... in multi-node cluster
// settings").
type ClusterResult struct {
	Scale Scale
	Rows  []ClusterRow
}

// clusterStencil is the per-node Stencil3D of X8 and X12.
func (s Scale) clusterStencil() kernels.StencilConfig {
	cfg := s.StencilConfig(s.StencilReducedSizes()[1])
	cfg.Iterations = 3
	return cfg
}

// RunClusterStencil runs the distributed stencil perNode on a cluster
// of nodes copies of the scale's machine, every node's manager built
// with opts, and checks each node's auditor at quiescence. Windows run
// on goroutines when parallel is set; the results are byte-identical
// either way. Audited nodes join the DrainAudit registry. The caller
// closes the returned cluster.
func (s Scale) RunClusterStencil(nodes int, opts core.Options, perNode kernels.StencilConfig, parallel bool) (*cluster.Cluster, *cluster.StencilResult, error) {
	c, err := cluster.New(cluster.Config{
		Nodes:  nodes,
		Spec:   s.Machine(),
		NumPEs: s.NumPEs(),
		Opts:   opts,
		Net:    cluster.DefaultNetwork(),
	}, parallel)
	if err != nil {
		return nil, nil, err
	}
	for _, nd := range c.Nodes {
		registerAudit(nd.Env)
	}
	res, err := cluster.RunStencil(c, perNode)
	for i := 0; err == nil && i < len(c.Nodes); i++ {
		aud := c.Nodes[i].MG.Auditor()
		aud.CheckQuiescent()
		if aerr := aud.Err(); aerr != nil {
			err = fmt.Errorf("node %d: %w", i, aerr)
		}
	}
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, res, nil
}

// RunCluster sweeps node counts with a constant per-node working set.
func RunCluster(s Scale) (*ClusterResult, error) {
	res := &ClusterResult{Scale: s}
	counts := []int{1, 2, 4, 8}
	if s == Full {
		counts = []int{1, 2, 4}
	}
	run := func(nodes int, mode core.Mode) (*cluster.StencilResult, error) {
		c, res, err := s.RunClusterStencil(nodes, s.options(mode), s.clusterStencil(), false)
		if err != nil {
			return nil, err
		}
		c.Close()
		return res, nil
	}
	var base sim.Time
	for _, n := range counts {
		naive, err := run(n, core.Baseline)
		if err != nil {
			return nil, fmt.Errorf("exp: cluster naive %d nodes: %w", n, err)
		}
		multi, err := run(n, core.MultiIO)
		if err != nil {
			return nil, fmt.Errorf("exp: cluster multi %d nodes: %w", n, err)
		}
		if n == counts[0] {
			base = multi.AvgIter
		}
		res.Rows = append(res.Rows, ClusterRow{
			Nodes:      n,
			NaiveIter:  naive.AvgIter,
			MultiIter:  multi.AvgIter,
			Speedup:    float64(naive.AvgIter) / float64(multi.AvgIter),
			HaloBytes:  multi.NetBytes,
			WeakSlowdn: float64(multi.AvgIter) / float64(base),
		})
	}
	return res, nil
}

// Pass is X8's gate: MultiIO beats Naive at every node count, halo
// exchange costs at most 30% over one node (weak-scaling overhead
// <= 1.3), and halo traffic is zero on one node and strictly rises with
// the node count.
func (r *ClusterResult) Pass() error {
	for i, row := range r.Rows {
		switch {
		case row.Speedup <= 1:
			return fmt.Errorf("%d nodes: MultiIO speedup %.2f, want > 1", row.Nodes, row.Speedup)
		case row.WeakSlowdn > 1.3:
			return fmt.Errorf("%d nodes: weak-scaling overhead %.2f, want <= 1.3", row.Nodes, row.WeakSlowdn)
		case row.Nodes == 1 && row.HaloBytes != 0:
			return fmt.Errorf("1 node: %.0f halo bytes, want 0", row.HaloBytes)
		case i > 0 && row.HaloBytes <= r.Rows[i-1].HaloBytes:
			return fmt.Errorf("%d nodes: halo traffic %.0f bytes, want more than the %.0f at %d nodes",
				row.Nodes, row.HaloBytes, r.Rows[i-1].HaloBytes, r.Rows[i-1].Nodes)
		}
	}
	return nil
}

// Table renders X8.
func (r *ClusterResult) Table() Table {
	t := Table{
		Title: "X8: multi-node weak scaling (distributed Stencil3D, halos over 100Gb/s fabric)",
		Header: []string{"nodes", "naive iter (s)", "MultiIO iter (s)",
			"speedup", "weak-scaling overhead", "halo GB"},
		Notes: []string{
			"paper conclusion: comparisons 'in multi-node cluster settings';",
			"per-node working set constant, MultiIO advantage survives distribution",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Nodes),
			f3(row.NaiveIter), f3(row.MultiIter),
			f2(row.Speedup), f2(row.WeakSlowdn),
			f2(row.HaloBytes / float64(GB)),
		})
	}
	return t
}
