package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// --- X5: NVM far memory (the paper's extension target) ---

// NVMRow compares one mode's stencil time on the two far-memory
// technologies.
type NVMRow struct {
	Mode     core.Mode
	DDRTime  sim.Time
	NVMTime  sim.Time
	Speedups struct {
		DDR float64 // vs Naive on the DDR machine
		NVM float64 // vs Naive on the NVM machine
	}
}

// NVMResult is experiment X5: the paper's conclusion predicts that
// "architectures with heterogeneity in both latency and bandwidth
// would benefit even more" from runtime-managed movement; this runs
// the Fig. 8 stencil with an NVM far memory to test it.
type NVMResult struct {
	Scale Scale
	Rows  []NVMRow
}

// nvmMachine returns the scale's machine with the far memory replaced
// by the NVM tier.
func (s Scale) nvmMachine() topology.MachineSpec {
	nvm := topology.KNLWithNVM()
	spec := s.Machine() // for the scaled HBM/core parameters
	spec.Name = nvm.Name
	spec.FarKind = nvm.FarKind
	// Scale the NVM bandwidths like the other node parameters.
	div := 1.0
	if s == Small {
		div = 8
	}
	spec.DDRCap = nvm.DDRCap
	if s == Small {
		spec.DDRCap = nvm.DDRCap / 8
	}
	spec.DDRReadBW = nvm.DDRReadBW / div
	spec.DDRWriteBW = nvm.DDRWriteBW / div
	spec.DDRTotalBW = nvm.DDRTotalBW / div
	spec.DDRLatency = nvm.DDRLatency
	return spec
}

// RunNVM compares Naive vs the strategies on DDR-far and NVM-far
// machines.
func RunNVM(s Scale) (*NVMResult, error) {
	res := &NVMResult{Scale: s}
	cfg := s.StencilConfig(s.StencilReducedSizes()[1])
	run := func(spec topology.MachineSpec, mode core.Mode) (sim.Time, error) {
		_, t, err := runApp(s.newEnvOn(spec, s.options(mode), false), kernels.NewStencil, cfg)
		return t, err
	}
	ddrSpec := s.Machine()
	nvmSpec := s.nvmMachine()
	var naiveDDR, naiveNVM sim.Time
	for _, mode := range []core.Mode{core.Baseline, core.NoIO, core.MultiIO} {
		ddr, err := run(ddrSpec, mode)
		if err != nil {
			return nil, fmt.Errorf("exp: nvm %v on DDR: %w", mode, err)
		}
		nvm, err := run(nvmSpec, mode)
		if err != nil {
			return nil, fmt.Errorf("exp: nvm %v on NVM: %w", mode, err)
		}
		if mode == core.Baseline {
			naiveDDR, naiveNVM = ddr, nvm
		}
		row := NVMRow{Mode: mode, DDRTime: ddr, NVMTime: nvm}
		row.Speedups.DDR = float64(naiveDDR) / float64(ddr)
		row.Speedups.NVM = float64(naiveNVM) / float64(nvm)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders X5.
func (r *NVMResult) Table() Table {
	t := Table{
		Title:  "X5: DDR4 vs NVM far memory (Stencil3D)",
		Header: []string{"strategy", "DDR4-far (s)", "speedup", "NVM-far (s)", "speedup"},
		Notes: []string{
			"paper conclusion: 'architectures with heterogeneity in both",
			"latency and bandwidth would benefit even more'",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Mode.String(),
			f2(row.DDRTime), f2(row.Speedups.DDR),
			f2(row.NVMTime), f2(row.Speedups.NVM),
		})
	}
	return t
}
