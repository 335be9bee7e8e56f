package topology

import (
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

func TestKNLPreset(t *testing.T) {
	s := KNL7250()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cores != 68 || s.SMTWays != 4 || s.TilesL2 != 34 {
		t.Fatalf("core config %d/%d/%d", s.Cores, s.SMTWays, s.TilesL2)
	}
	if s.HardwareThreads() != 272 {
		t.Fatalf("hardware threads = %d, want 272", s.HardwareThreads())
	}
	if s.HBMCap != 16*GB || s.DDRCap != 96*GB {
		t.Fatal("memory capacities wrong")
	}
	if ratio := s.HBMReadBW / s.DDRReadBW; ratio < 4 || ratio > 5 {
		t.Fatalf("HBM/DDR read ratio = %.2f, want >4 (paper: 'over 4X')", ratio)
	}
	if s.DDRCap/s.HBMCap != 6 {
		t.Fatal("paper states DDR capacity is 6 times HBM")
	}
}

func TestBuildFlat(t *testing.T) {
	e := sim.NewEngine(1)
	m := KNL7250().MustBuild(e)
	if m.DDR().ID != DDRNodeID || m.HBM().ID != HBMNodeID {
		t.Fatal("node id convention: DDR must be node 0, HBM node 1")
	}
	if m.DDR().Kind != memsim.DDR || m.HBM().Kind != memsim.HBM {
		t.Fatal("node kinds wrong")
	}
	if m.HBM().Cap != 16*GB {
		t.Fatal("flat mode must expose full MCDRAM")
	}
}

func TestClusterModeBandwidth(t *testing.T) {
	spec := KNL7250()
	e1 := sim.NewEngine(1)
	spec.ClusterMode = AllToAll
	a2a := spec.MustBuild(e1)
	e2 := sim.NewEngine(1)
	spec.ClusterMode = Quadrant
	quad := spec.MustBuild(e2)
	if a2a.HBM().ReadBW() >= quad.HBM().ReadBW() {
		t.Fatal("all-to-all should have lower bandwidth than quadrant")
	}
}

func TestHybridModeShrinksHBM(t *testing.T) {
	spec := KNL7250()
	spec.MemoryMode = Hybrid
	spec.HybridCacheFraction = 0.5
	e := sim.NewEngine(1)
	m := spec.MustBuild(e)
	if m.HBM().Cap != 8*GB {
		t.Fatalf("hybrid HBM cap = %d, want 8GB", m.HBM().Cap)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []func(*MachineSpec){
		func(s *MachineSpec) { s.Cores = 0 },
		func(s *MachineSpec) { s.SMTWays = 0 },
		func(s *MachineSpec) { s.HBMCap = 0 },
		func(s *MachineSpec) { s.DDRReadBW = 0 },
		func(s *MachineSpec) { s.CoreStreamBW = 0 },
		func(s *MachineSpec) { s.CoreFlops = 0 },
		func(s *MachineSpec) { s.MemoryMode = Hybrid; s.HybridCacheFraction = 0 },
		func(s *MachineSpec) { s.MemoryMode = Hybrid; s.HybridCacheFraction = 1.5 },
	}
	for i, mutate := range cases {
		s := KNL7250()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec passed Validate", i)
		}
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	s := KNL7250()
	s.Cores = -1
	if _, err := s.Build(sim.NewEngine(1)); err == nil {
		t.Fatal("Build accepted invalid spec")
	}
}

func TestModeStrings(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{Flat.String(), "flat"},
		{Cache.String(), "cache"},
		{Hybrid.String(), "hybrid"},
		{AllToAll.String(), "all-to-all"},
		{Quadrant.String(), "quadrant"},
		{SNC4.String(), "snc-4"},
	} {
		if tc.got != tc.want {
			t.Errorf("mode string %q, want %q", tc.got, tc.want)
		}
	}
	if !strings.HasPrefix(MemoryMode(7).String(), "MemoryMode(") {
		t.Error("unknown memory mode string")
	}
	if !strings.HasPrefix(ClusterMode(7).String(), "ClusterMode(") {
		t.Error("unknown cluster mode string")
	}
}

func TestAllocatorWired(t *testing.T) {
	e := sim.NewEngine(1)
	m := KNL7250().MustBuild(e)
	if _, err := m.Alloc.AllocOnNode(4*GB, HBMNodeID); err != nil {
		t.Fatal(err)
	}
	if m.HBM().Used() != 4*GB {
		t.Fatal("allocator not wired to machine nodes")
	}
}

func TestKNLWithNVMPreset(t *testing.T) {
	s := KNLWithNVM()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.FarKind != memsim.NVM {
		t.Fatal("far kind not NVM")
	}
	base := KNL7250()
	if s.DDRReadBW >= base.DDRReadBW/2 {
		t.Fatal("NVM read bandwidth should be well below DDR4's")
	}
	if s.DDRWriteBW >= s.DDRReadBW {
		t.Fatal("NVM must have a read/write asymmetry")
	}
	if s.DDRLatency <= 0 {
		t.Fatal("NVM needs access latency")
	}
	if s.DDRCap <= base.DDRCap {
		t.Fatal("NVM tier should be larger than DDR4")
	}
	e := sim.NewEngine(1)
	m := s.MustBuild(e)
	if m.Far().Kind != memsim.NVM || m.Far().Name != "NVM" {
		t.Fatalf("far node %s/%v, want NVM", m.Far().Name, m.Far().Kind)
	}
	if m.HBM().Kind != memsim.HBM {
		t.Fatal("HBM node kind wrong on NVM machine")
	}
}

func TestFarDefaultsToDDR(t *testing.T) {
	e := sim.NewEngine(1)
	m := KNL7250().MustBuild(e)
	if m.Far() != m.DDR() {
		t.Fatal("Far() must alias DDR()")
	}
	if m.Far().Name != "DDR4" || m.Far().Kind != memsim.DDR {
		t.Fatalf("default far node %s/%v", m.Far().Name, m.Far().Kind)
	}
}

func TestValidateMemcpyAndMigration(t *testing.T) {
	s := KNL7250()
	s.MemcpyBW = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero MemcpyBW accepted")
	}
	s = KNL7250()
	s.MigrationOpCost = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative MigrationOpCost accepted")
	}
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	s := KNL7250()
	s.Cores = 0
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	s.MustBuild(sim.NewEngine(1))
}

// TestTieredKNL checks the depth presets build chains whose accessors
// resolve by kind: HBM stays the near tier and the far tier deepens
// with the chain, while the two-tier node-ID convention is preserved.
func TestTieredKNL(t *testing.T) {
	farKinds := map[int]memsim.NodeKind{2: memsim.DDR, 3: memsim.NVM, 4: memsim.Remote}
	for depth := 2; depth <= 4; depth++ {
		s, err := TieredKNL(depth)
		if err != nil {
			t.Fatal(err)
		}
		if s.TierDepth() != depth {
			t.Fatalf("depth %d: TierDepth = %d", depth, s.TierDepth())
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		m := s.MustBuild(sim.NewEngine(1))
		if m.NumTiers() != depth {
			t.Fatalf("depth %d: NumTiers = %d", depth, m.NumTiers())
		}
		if m.HBM().Kind != memsim.HBM || m.HBM().ID != HBMNodeID {
			t.Fatalf("depth %d: HBM() resolved node %q (id %d)", depth, m.HBM().Name, m.HBM().ID)
		}
		if m.DDR().Kind != memsim.DDR || m.DDR().ID != DDRNodeID {
			t.Fatalf("depth %d: DDR() resolved node %q (id %d)", depth, m.DDR().Name, m.DDR().ID)
		}
		chain := m.Chain()
		if chain[0] != m.HBM() || chain[len(chain)-1] != m.Far() {
			t.Fatalf("depth %d: chain ends are not HBM()/Far()", depth)
		}
		for i := 1; i < len(chain); i++ {
			if chain[i].Kind.TierRank() <= chain[i-1].Kind.TierRank() {
				t.Fatalf("depth %d: chain rank not strictly deepening at %d", depth, i)
			}
		}
		if m.Far().Kind != farKinds[depth] {
			t.Fatalf("depth %d: far tier kind %s, want %s", depth, m.Far().Kind, farKinds[depth])
		}
	}
	for _, depth := range []int{1, 5} {
		if _, err := TieredKNL(depth); err == nil {
			t.Fatalf("TieredKNL(%d) should fail", depth)
		}
	}
}

// TestValidateRejectsNonDeepeningTier: extra tiers must strictly deepen
// the chain.
func TestValidateRejectsNonDeepeningTier(t *testing.T) {
	s := KNL7250()
	s.ExtraTiers = append(s.ExtraTiers, TierSpec{
		Kind: memsim.DDR, Cap: GB, ReadBW: GBf, WriteBW: GBf, TotalBW: GBf,
	})
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "deepen") {
		t.Fatalf("Validate = %v, want non-deepening chain error", err)
	}
}
