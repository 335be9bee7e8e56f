package hetmem_test

import (
	"testing"

	"github.com/hetmem/hetmem"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: build the machine, declare blocks, run a [prefetch]
// entry under the MultiIO strategy, and check the block actually moved
// through MCDRAM.
func TestFacadeEndToEnd(t *testing.T) {
	eng := hetmem.NewEngine(1)
	mach := hetmem.KNL7250().MustBuild(eng)
	rt := hetmem.NewRuntime(mach, 4, hetmem.DefaultParams())
	mgr := hetmem.NewManager(rt, hetmem.DefaultOptions(hetmem.MultiIO))
	defer eng.Close()

	blocks := make([]*hetmem.Handle, 8)
	for i := range blocks {
		blocks[i] = mgr.NewHandle("b", 2*hetmem.GB)
	}
	arr := rt.NewArray("w", len(blocks), func(i int) hetmem.Chare { return i }, nil)
	ran := 0
	kern := arr.Register(hetmem.Entry{
		Name:     "k",
		Prefetch: true,
		Deps: func(el *hetmem.Element, m *hetmem.Message) []hetmem.DataDep {
			return []hetmem.DataDep{{Handle: blocks[el.Index], Mode: hetmem.ReadWrite}}
		},
		Fn: func(p *hetmem.Proc, pe *hetmem.PE, el *hetmem.Element, m *hetmem.Message) {
			if blocks[el.Index].State() != hetmem.InHBM {
				t.Errorf("chare %d ran with block in %v", el.Index, blocks[el.Index].State())
			}
			mgr.RunKernel(p, []hetmem.DataDep{{Handle: blocks[el.Index], Mode: hetmem.ReadWrite}},
				hetmem.KernelSpec{TrafficScale: 1})
			ran++
		},
	})
	rt.Main(func(p *hetmem.Proc) { arr.Broadcast(-1, kern, nil) })
	eng.RunAll()

	if ran != len(blocks) {
		t.Fatalf("ran %d kernels, want %d", ran, len(blocks))
	}
	if mgr.Stats.Fetches == 0 {
		t.Fatal("no prefetches through the facade")
	}
	if mach.HBM().PeakUsed == 0 {
		t.Fatal("HBM never used")
	}
	if eng.Now() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

// TestFacadeMachinePresets checks the re-exported presets and modes.
func TestFacadeMachinePresets(t *testing.T) {
	spec := hetmem.KNL7250()
	if spec.HBMCap != 16*hetmem.GB {
		t.Fatal("KNL preset HBM capacity")
	}
	if spec.MemoryMode != hetmem.Flat || spec.ClusterMode != hetmem.AllToAll {
		t.Fatal("KNL preset modes")
	}
	for _, m := range []hetmem.Mode{hetmem.DDROnly, hetmem.Baseline, hetmem.SingleIO, hetmem.NoIO, hetmem.MultiIO} {
		if m.String() == "" {
			t.Fatal("mode name empty")
		}
	}
	if hetmem.DefaultStencilConfig().Validate() != nil {
		t.Fatal("stencil default invalid")
	}
	if hetmem.DefaultMatMulConfig().Validate() != nil {
		t.Fatal("matmul default invalid")
	}
}

// TestFacadeApps runs both paper applications through the facade at a
// tiny scale.
func TestFacadeApps(t *testing.T) {
	spec := hetmem.KNL7250()
	spec.Cores = 8
	spec.HBMCap = 2 * hetmem.GB
	spec.DDRCap = 12 * hetmem.GB

	scfg := hetmem.DefaultStencilConfig()
	scfg.NumPEs = 8
	scfg.TotalBytes = 4 * hetmem.GB
	scfg.ReducedBytes = hetmem.GB
	scfg.Iterations = 2
	env := hetmem.NewEnv(hetmem.EnvConfig{Spec: spec, NumPEs: 8, Opts: hetmem.DefaultOptions(hetmem.MultiIO)})
	app, err := hetmem.NewStencil(env.MG, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	env.Close()

	mcfg := hetmem.DefaultMatMulConfig()
	mcfg.NumPEs = 8
	mcfg.Grid = 8
	mcfg.TotalBytes = 3 * hetmem.GB
	env2 := hetmem.NewEnv(hetmem.EnvConfig{Spec: spec, NumPEs: 8, Opts: hetmem.DefaultOptions(hetmem.SingleIO)})
	mapp, err := hetmem.NewMatMul(env2.MG, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapp.Run(); err != nil {
		t.Fatal(err)
	}
	env2.Close()
}
