// Package cluster extends the node-level runtime to multi-node
// settings — the last future-work item in the paper's conclusion ("We
// will also perform comparisons ... in multi-node cluster settings").
//
// A Cluster couples several independent node instances (each with its
// own heterogeneous memory system, Charm-like runtime and OOC manager)
// on one simulation engine, connected by a network fabric. The fabric
// reuses the memsim bandwidth allocator: each node's NIC is a memsim
// node whose read side is its egress and write side its ingress, so
// concurrent messages contend for NIC bandwidth exactly like memory
// flows contend for a bus, and a message's cost is
// latency + serialisation at the max-min fair share.
package cluster

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// NetworkSpec describes the interconnect.
type NetworkSpec struct {
	// Latency is the one-way message latency (seconds).
	Latency sim.Time
	// NICBandwidth is each node's injection/ejection bandwidth in
	// bytes/second (e.g. ~12.5e9 for 100 Gb/s).
	NICBandwidth float64
}

// DefaultNetwork returns a 100 Gb/s, 1.5 µs fabric, typical of the
// Omni-Path interconnect on Stampede 2.0's KNL partition.
func DefaultNetwork() NetworkSpec {
	return NetworkSpec{Latency: 1.5e-6, NICBandwidth: 12.5e9}
}

// Validate reports configuration errors.
func (n NetworkSpec) Validate() error {
	if n.Latency < 0 || n.NICBandwidth <= 0 {
		return fmt.Errorf("cluster: invalid network spec %+v", n)
	}
	return nil
}

// Config sizes a cluster.
type Config struct {
	Nodes  int
	Spec   topology.MachineSpec
	NumPEs int // per node
	Opts   core.Options
	Params charm.Params
	Net    NetworkSpec
	Trace  bool
	Seed   int64
}

// Node is one machine of the cluster with its runtime and OOC manager.
type Node struct {
	ID     int
	Mach   *topology.Machine
	RT     *charm.Runtime
	MG     *core.Manager
	Tracer *projections.Tracer

	nic *memsim.Node
}

// Cluster is a set of nodes on one engine plus the fabric.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node

	net    NetworkSpec
	fabric *memsim.System

	// Stats counts fabric traffic.
	Stats struct {
		Messages int64
		Bytes    float64
	}
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	params := cfg.Params
	if params == (charm.Params{}) {
		params = charm.DefaultParams()
	}
	eng := sim.NewEngine(seed)

	// The fabric: one memsim node per NIC. Capacity is irrelevant
	// (nothing is allocated); read = egress, write = ingress.
	nicSpecs := make([]memsim.NodeSpec, cfg.Nodes)
	for i := range nicSpecs {
		nicSpecs[i] = memsim.NodeSpec{
			Name:    fmt.Sprintf("nic%d", i),
			Kind:    memsim.DDR,
			Cap:     1,
			ReadBW:  cfg.Net.NICBandwidth,
			WriteBW: cfg.Net.NICBandwidth,
			TotalBW: 2 * cfg.Net.NICBandwidth, // full duplex
		}
	}
	c := &Cluster{Eng: eng, net: cfg.Net, fabric: memsim.NewSystem(eng, nicSpecs)}

	for i := 0; i < cfg.Nodes; i++ {
		mach, err := cfg.Spec.Build(eng)
		if err != nil {
			return nil, err
		}
		rt := charm.NewRuntime(mach, cfg.NumPEs, params)
		var tr *projections.Tracer
		if cfg.Trace {
			tr = projections.NewTracer(eng, cfg.NumPEs)
			rt.Attach(tr)
		}
		mg := core.NewManager(rt, cfg.Opts)
		c.Nodes = append(c.Nodes, &Node{
			ID: i, Mach: mach, RT: rt, MG: mg, Tracer: tr,
			nic: c.fabric.Node(i),
		})
	}
	return c, nil
}

// Close reaps all simulation processes.
func (c *Cluster) Close() { c.Eng.Close() }

// Send transfers bytes from node src to node dst over the fabric and
// runs deliver (an engine callback, typically an Array.Send on the
// destination runtime) when the message lands. Messages contend for
// the source's egress and the destination's ingress bandwidth.
func (c *Cluster) Send(src, dst int, bytes float64, deliver func()) {
	if src == dst {
		// Loopback skips the NIC.
		c.Eng.Schedule(c.Eng.Now(), deliver)
		return
	}
	c.Stats.Messages++
	c.Stats.Bytes += bytes
	lat := c.net.Latency
	c.Eng.After(lat, func() {
		c.fabric.StartFlow(memsim.FlowSpec{
			Bytes: bytes,
			Demands: []memsim.Demand{
				{Node: c.Nodes[src].nic, Access: memsim.Read},
				{Node: c.Nodes[dst].nic, Access: memsim.Write},
			},
		}).Then(deliver)
	})
}
