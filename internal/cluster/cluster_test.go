package cluster

import (
	"testing"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

const gb = topology.GB

// smallNode is the 1/8-slice KNL used by the node-level tests.
func smallNode() topology.MachineSpec {
	s := topology.KNL7250()
	s.Cores = 8
	s.TilesL2 = 4
	s.HBMCap = 2 * gb
	s.DDRCap = 12 * gb
	s.HBMReadBW /= 8
	s.HBMWriteBW /= 8
	s.HBMTotalBW /= 8
	s.DDRReadBW /= 8
	s.DDRWriteBW /= 8
	s.DDRTotalBW /= 8
	s.MemcpyBW /= 8
	return s
}

func smallClusterCfg(nodes int, mode core.Mode) Config {
	opts := core.DefaultOptions(mode)
	opts.HBMReserve = gb / 8
	return Config{
		Nodes:  nodes,
		Spec:   smallNode(),
		NumPEs: 8,
		Opts:   opts,
		Net:    DefaultNetwork(),
	}
}

func perNodeStencil() kernels.StencilConfig {
	return kernels.StencilConfig{
		TotalBytes:   4 * gb,
		ReducedBytes: gb / 2,
		Iterations:   3,
		Sweeps:       10,
		NumPEs:       8,
	}
}

// runStencil builds a fresh cluster, runs the distributed stencil and
// returns the result and the run signature.
func runStencil(t *testing.T, nodes int, mode core.Mode) (*StencilResult, string) {
	t.Helper()
	c, err := New(smallClusterCfg(nodes, mode))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	res, err := RunStencil(c, perNodeStencil())
	if err != nil {
		t.Fatalf("RunStencil(%d nodes, %v): %v", nodes, mode, err)
	}
	return res, c.Signature(res)
}

func TestNetworkValidation(t *testing.T) {
	if err := (NetworkSpec{Latency: -1, NICBandwidth: 1}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := (NetworkSpec{Latency: 0, NICBandwidth: 1}).Validate(); err == nil {
		t.Fatal("zero latency accepted")
	}
	if err := (NetworkSpec{Latency: 1, NICBandwidth: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if err := DefaultNetwork().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, Spec: smallNode(), NumPEs: 1, Net: DefaultNetwork()}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad := smallNode()
	bad.Cores = 0
	if _, err := New(Config{Nodes: 1, Spec: bad, NumPEs: 1, Net: DefaultNetwork()}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestNeedsPositiveLatency: zero lookahead admits no window.
func TestNeedsPositiveLatency(t *testing.T) {
	cfg := smallClusterCfg(2, core.Baseline)
	cfg.Net.Latency = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero-latency cluster accepted")
	}
}

// TestSendTiming pins the store-and-forward fabric model: an
// uncontended message costs egress serialisation + latency + ingress
// serialisation.
func TestSendTiming(t *testing.T) {
	cfg := smallClusterCfg(2, core.Baseline)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const bytes = 12.5e9 // one second of egress at the default NIC
	var arrived sim.Time
	c.Nodes[0].Eng.Schedule(0, func() {
		c.Send(0, 1, bytes, func() {
			arrived = c.Nodes[1].Eng.Now()
		})
	})
	c.Run()
	want := 1.0 + cfg.Net.Latency + 1.0 // egress + latency + ingress
	if diff := arrived - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("message arrived at %v, want ~%v", arrived, want)
	}
	if c.Stats.Messages != 1 || c.Stats.Bytes != bytes {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// TestLoopback: same-node sends skip the NIC and deliver at the
// current time on the local engine.
func TestLoopback(t *testing.T) {
	c, err := New(smallClusterCfg(1, core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var at sim.Time = -1
	c.Nodes[0].Eng.Schedule(2.5, func() {
		c.Send(0, 0, 1e9, func() { at = c.Nodes[0].Eng.Now() })
	})
	c.Run()
	if at != 2.5 {
		t.Fatalf("loopback delivered at %v, want 2.5", at)
	}
	if c.Stats.Messages != 0 {
		t.Fatalf("loopback counted as fabric traffic: %+v", c.Stats)
	}
}

// TestNICContention: concurrent messages share a NIC at the max-min
// fair share, on both halves of the store-and-forward path. Each
// message alone takes one second per NIC.
func TestNICContention(t *testing.T) {
	c, err := New(smallClusterCfg(3, core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const bytes = 12.5e9
	lat := DefaultNetwork().Latency
	// Out of node 0 to nodes 1 and 2: the two share node 0's egress
	// (2 s each), then take the two ingress NICs alone (1 s).
	var out1, out2 sim.Time
	c.Nodes[0].Eng.Schedule(0, func() {
		c.Send(0, 1, bytes, func() { out1 = c.Nodes[1].Eng.Now() })
		c.Send(0, 2, bytes, func() { out2 = c.Nodes[2].Eng.Now() })
	})
	// Into node 0 from nodes 1 and 2, 10 s later: each egress alone
	// (1 s), then the two share node 0's ingress (2 s each).
	var inAt [2]sim.Time
	for src := 1; src <= 2; src++ {
		src := src
		c.Nodes[src].Eng.Schedule(10, func() {
			c.Send(src, 0, bytes, func() { inAt[src-1] = c.Nodes[0].Eng.Now() })
		})
	}
	c.Run()
	near := func(got, want sim.Time) bool { return got-want > -1e-9 && got-want < 1e-9 }
	if want := 2 + lat + 1; !near(out1, want) || !near(out2, want) {
		t.Fatalf("egress contention: arrivals %v, %v, want %v", out1, out2, want)
	}
	if want := 10 + 1 + lat + 2; !near(inAt[0], want) || !near(inAt[1], want) {
		t.Fatalf("ingress contention: arrivals %v, want %v", inAt, want)
	}
}

func TestDistributedStencilRuns(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		res, _ := runStencil(t, nodes, core.MultiIO)
		if res.Total <= 0 || res.AvgIter <= 0 {
			t.Fatalf("%d nodes: bad timings %+v", nodes, res)
		}
		if nodes > 1 && res.NetMessages == 0 {
			t.Fatalf("%d nodes: no halo traffic", nodes)
		}
		if nodes == 1 && res.NetMessages != 0 {
			t.Fatal("single node should not use the fabric")
		}
	}
}

func TestWeakScaling(t *testing.T) {
	// Weak scaling: per-node work constant, so iteration time should
	// grow only mildly with node count (halo exchange overhead).
	one, _ := runStencil(t, 1, core.MultiIO)
	four, _ := runStencil(t, 4, core.MultiIO)
	if over := float64(four.AvgIter) / float64(one.AvgIter); over > 1.25 {
		t.Fatalf("weak-scaling overhead %.2fx at 4 nodes, want <= 1.25x", over)
	}
}

func TestDistributedStrategiesOrdering(t *testing.T) {
	// The node-level result survives distribution: MultiIO beats
	// Naive on every node count.
	for _, nodes := range []int{2, 4} {
		naive, _ := runStencil(t, nodes, core.Baseline)
		multi, _ := runStencil(t, nodes, core.MultiIO)
		if multi.Total >= naive.Total {
			t.Fatalf("%d nodes: MultiIO (%v) not faster than Naive (%v)", nodes, multi.Total, naive.Total)
		}
	}
}

func TestDistributedDeterminism(t *testing.T) {
	_, a := runStencil(t, 2, core.MultiIO)
	_, b := runStencil(t, 2, core.MultiIO)
	if a != b {
		t.Fatalf("nondeterministic cluster run\n--- first\n%s--- second\n%s", a, b)
	}
}
