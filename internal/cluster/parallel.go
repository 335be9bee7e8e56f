package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Conservative parallel DES for the cluster path.
//
// The single-engine Cluster interleaves every node's events in one
// queue; at scale the engine itself becomes the bottleneck, and one
// queue cannot use more than one host core. PCluster gives every node
// its own sim.Engine and runs them in synchronized windows:
//
//	window k executes, on every node, all events with t < horizon_k,
//	where horizon_k = (earliest pending event across nodes) + L
//
// and L is the inter-node message latency — the classic conservative
// lookahead (Chandy/Misra/Bryant): a message created by an event at
// t1 >= T_min cannot be delivered before t1 + L >= T_min + L =
// horizon_k, so no event inside the window can affect another node
// within the same window. Engines share no state; cross-node messages
// buffer in per-node outboxes and are merged at the barrier in a
// deterministic (deliver-time, source, sequence) order. Serial and
// parallel execution of the windows are therefore byte-identical —
// hmlint's determinism analyzer and the serial-vs-parallel tests in
// parallel_test.go guard this.
//
// The fabric model differs from the single-engine Cluster's: a
// coupled max-min flow over source egress and destination ingress
// cannot be decomposed across engines, so PCluster is store-and-forward
// — a message serialises through its source NIC (egress flows on the
// source engine contend), travels for L, then serialises through the
// destination NIC (ingress flows on the destination engine contend).
// Uncontended cost is 2*bytes/BW + L instead of bytes/BW + L.
type PCluster struct {
	Nodes []*PNode

	net      NetworkSpec
	parallel bool

	// Stats aggregates fabric traffic and coordinator activity; valid
	// after Run (per-node counters are summed at the barrier).
	Stats struct {
		Messages int64
		Bytes    float64
		Windows  int64
	}
}

// PNode is one machine of a parallel cluster: a full node stack on its
// own engine plus a single-node memsim system acting as its NIC.
type PNode struct {
	ID     int
	Eng    *sim.Engine
	Mach   *topology.Machine
	RT     *charm.Runtime
	MG     *core.Manager
	Tracer *projections.Tracer

	nic     *memsim.System
	nicNode *memsim.Node

	outbox []pmsg
	msgSeq int64

	messages int64
	bytes    float64
}

// pmsg is a cross-node message parked in its source node's outbox
// between egress completion and the next barrier.
type pmsg struct {
	src, dst  int
	bytes     float64
	deliverAt sim.Time
	seq       int64 // per-source sequence, for deterministic merge order
	deliver   func()
}

// NewParallel builds a per-node-engine cluster. parallel selects
// whether windows run on goroutines (one per node) or sequentially;
// both produce byte-identical results. The network latency must be
// positive — it is the conservative lookahead, and a zero lookahead
// admits no parallel window.
func NewParallel(cfg Config, parallel bool) (*PCluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.Net.Latency <= 0 {
		return nil, fmt.Errorf("cluster: parallel cluster needs positive network latency (the lookahead)")
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
	pc := &PCluster{net: cfg.Net, parallel: parallel}
	for i := 0; i < cfg.Nodes; i++ {
		eng := sim.NewEngine(seed + int64(i))
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
		nic := memsim.NewSystem(eng, []memsim.NodeSpec{{
			Name:    fmt.Sprintf("nic%d", i),
			Kind:    memsim.DDR,
			Cap:     1,
			ReadBW:  cfg.Net.NICBandwidth,
			WriteBW: cfg.Net.NICBandwidth,
			TotalBW: 2 * cfg.Net.NICBandwidth, // full duplex
		}})
		pc.Nodes = append(pc.Nodes, &PNode{
			ID: i, Eng: eng, Mach: mach, RT: rt, MG: mg, Tracer: tr,
			//hmlint:ignore tierchain the NIC system is a single-node bandwidth model built three lines up, not a tier chain; node 0 is its only node by construction
			nic: nic, nicNode: nic.Node(0),
		})
	}
	return pc, nil
}

// Close reaps all simulation processes on every node engine.
func (pc *PCluster) Close() {
	for _, nd := range pc.Nodes {
		nd.Eng.Close()
	}
}

// Send transfers bytes from node src to node dst and runs deliver on
// dst's engine when the message lands. Must be called from src's
// engine context (an event callback or process on that engine). The
// message serialises through src's egress NIC, waits in src's outbox
// until the window barrier, then serialises through dst's ingress NIC
// starting at egress-end + latency.
func (pc *PCluster) Send(src, dst int, bytes float64, deliver func()) {
	sn := pc.Nodes[src]
	if src == dst {
		// Loopback skips the NIC.
		sn.Eng.Schedule(sn.Eng.Now(), deliver)
		return
	}
	sn.messages++
	sn.bytes += bytes
	lat := pc.net.Latency
	sn.nic.StartFlow(memsim.FlowSpec{
		Bytes:   bytes,
		Demands: []memsim.Demand{{Node: sn.nicNode, Access: memsim.Read}},
	}).Then(func() {
		sn.outbox = append(sn.outbox, pmsg{
			src: src, dst: dst, bytes: bytes,
			deliverAt: sn.Eng.Now() + lat,
			seq:       sn.msgSeq,
			deliver:   deliver,
		})
		sn.msgSeq++
	})
}

// ingress schedules the arrival half of m on its destination engine:
// an ingress flow starting at deliverAt whose completion runs the
// deliver callback.
func (pc *PCluster) ingress(m pmsg) {
	dn := pc.Nodes[m.dst]
	deliver := m.deliver
	bytes := m.bytes
	dn.Eng.Schedule(m.deliverAt, func() {
		dn.nic.StartFlow(memsim.FlowSpec{
			Bytes:   bytes,
			Demands: []memsim.Demand{{Node: dn.nicNode, Access: memsim.Write}},
		}).Then(deliver)
	})
}

// Run executes all node engines to global quiescence using
// conservative windows. It returns the largest node-local virtual time
// reached. Safe to call once per cluster; node processes left parked
// afterwards are reaped by Close.
func (pc *PCluster) Run() sim.Time {
	var wg sync.WaitGroup
	var batch []pmsg
	for {
		tmin := sim.Infinity
		for _, nd := range pc.Nodes {
			if t, ok := nd.Eng.PeekTime(); ok && t < tmin {
				tmin = t
			}
		}
		if tmin == sim.Infinity {
			break
		}
		horizon := tmin + pc.net.Latency
		if pc.parallel && len(pc.Nodes) > 1 {
			for _, nd := range pc.Nodes {
				nd := nd
				wg.Add(1)
				go func() {
					defer wg.Done()
					nd.Eng.RunBefore(horizon)
				}()
			}
			wg.Wait()
		} else {
			for _, nd := range pc.Nodes {
				nd.Eng.RunBefore(horizon)
			}
		}
		pc.Stats.Windows++

		// Barrier: merge every node's outbox in deterministic order
		// and materialise the arrivals on the destination engines.
		// deliverAt >= horizon for every message (egress completed at
		// t1 >= tmin, so t1+L >= horizon > every engine's clock) —
		// scheduling can never be in an engine's past.
		batch = batch[:0]
		for _, nd := range pc.Nodes {
			batch = append(batch, nd.outbox...)
			nd.outbox = nd.outbox[:0]
		}
		sort.Slice(batch, func(a, b int) bool {
			if batch[a].deliverAt != batch[b].deliverAt {
				return batch[a].deliverAt < batch[b].deliverAt
			}
			if batch[a].src != batch[b].src {
				return batch[a].src < batch[b].src
			}
			return batch[a].seq < batch[b].seq
		})
		for _, m := range batch {
			pc.ingress(m)
		}
	}
	var end sim.Time
	for _, nd := range pc.Nodes {
		pc.Stats.Messages += nd.messages
		pc.Stats.Bytes += nd.bytes
		nd.messages, nd.bytes = 0, 0
		if t := nd.Eng.Now(); t > end {
			end = t
		}
	}
	return end
}

// Signature renders everything observable about a finished run into a
// string: per-node scheduler and manager counters, final clocks and
// engine event counts, plus the cluster-level result. Two runs are
// byte-identical iff their signatures are equal — the determinism tests
// and X12's serial-vs-parallel check both compare these.
func (pc *PCluster) Signature(res *StencilResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "result=%+v\nstats=%+v\n", *res, pc.Stats)
	for _, nd := range pc.Nodes {
		st := nd.Eng.EventStats()
		fmt.Fprintf(&b, "node%d now=%.12e fired=%d sched=%d tasks=%d msgs=%d fetches=%d evictions=%d bytesF=%d bytesE=%d\n",
			nd.ID, nd.Eng.Now(), st.Fired, st.Scheduled,
			nd.RT.Stats.TasksExecuted, nd.RT.Stats.MessagesSent,
			nd.MG.Stats.Fetches, nd.MG.Stats.Evictions,
			nd.MG.Stats.BytesFetched, nd.MG.Stats.BytesEvicted)
	}
	return b.String()
}

// RunStencilParallel runs the distributed stencil of RunStencil on a
// parallel cluster. The halo-exchange wiring is identical; only the
// fabric and engine substrate differ. Node i's state is touched solely
// by events on node i's engine, which is what makes the windows safe.
func RunStencilParallel(pc *PCluster, cfg StencilConfig) (*StencilResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pc.Nodes) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: config wants %d nodes, cluster has %d", cfg.Nodes, len(pc.Nodes))
	}
	states := make([]*nodeState, cfg.Nodes)

	tryResume := func(i int) {
		st := states[i]
		if st.resume != nil && st.haloSeen >= st.haloWant {
			r := st.resume
			st.resume = nil
			st.haloSeen -= st.haloWant
			r()
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		i := i
		app, err := kernels.NewStencil(pc.Nodes[i].MG, cfg.PerNode)
		if err != nil {
			return nil, err
		}
		st := &nodeState{app: app}
		var neighbours []int
		if i > 0 {
			neighbours = append(neighbours, i-1)
		}
		if i < cfg.Nodes-1 {
			neighbours = append(neighbours, i+1)
		}
		st.haloWant = len(neighbours)
		states[i] = st
		app.OnIteration = func(iter int, resume func()) {
			st.resume = resume
			for _, nb := range neighbours {
				nb := nb
				pc.Send(i, nb, float64(cfg.halo()), func() {
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
	pc.Run()
	for i, st := range states {
		if !st.app.Done() {
			return nil, fmt.Errorf("cluster: node %d deadlocked after %d/%d iterations",
				i, len(st.app.IterEnd), cfg.PerNode.Iterations)
		}
	}
	var end sim.Time
	for _, st := range states {
		if t := st.app.IterEnd[len(st.app.IterEnd)-1]; t > end {
			end = t
		}
	}
	return &StencilResult{
		Nodes:       cfg.Nodes,
		Total:       end,
		AvgIter:     end / sim.Time(cfg.PerNode.Iterations),
		NetBytes:    pc.Stats.Bytes,
		NetMessages: pc.Stats.Messages,
	}, nil
}
