// Package exp contains one driver per table/figure of the paper's
// evaluation (Figs. 1, 2, 5, 6, 7, 8, 9) plus the extension experiments
// from DESIGN.md (cache-mode comparison X1 and the ablations X2-X4).
// Every driver builds fresh simulated machines, runs the workloads at
// the requested scale and returns structured rows that render as text
// tables mirroring the paper's plots.
package exp

import (
	"fmt"
	"strings"

	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// GB re-exports the byte unit used throughout.
const GB = topology.GB

// Scale selects experiment sizing.
type Scale int

const (
	// Full runs the paper's configurations: a 64-PE KNL, 32 GB
	// stencil grids, 24-54 GB matrices. A full figure takes seconds
	// of wall time.
	Full Scale = iota
	// Small runs a 1/8 slice (8 PEs, 2 GB MCDRAM, bandwidths / 8)
	// with proportionally scaled working sets — same shapes, fast
	// enough for unit tests.
	Small
)

// String names the scale.
func (s Scale) String() string {
	if s == Small {
		return "small"
	}
	return "full"
}

// ParseScale resolves a scale name: full or small.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "full":
		return Full, nil
	case "small":
		return Small, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want full or small)", name)
}

// Machine returns the machine spec for the scale.
func (s Scale) Machine() topology.MachineSpec {
	spec := topology.KNL7250()
	if s == Small {
		spec.Cores = 8
		spec.TilesL2 = 4
		spec.HBMCap = 2 * GB
		spec.DDRCap = 12 * GB
		spec.HBMReadBW /= 8
		spec.HBMWriteBW /= 8
		spec.HBMTotalBW /= 8
		spec.DDRReadBW /= 8
		spec.DDRWriteBW /= 8
		spec.DDRTotalBW /= 8
		// The slice also has 1/8 the IO-thread capability per worker
		// population: a single IO thread serving 8 PEs here must be
		// as relatively starved as one serving 64 PEs on the full
		// machine, or Fig. 8's Single-IO slowdown disappears.
		spec.MemcpyBW /= 8
	}
	return spec
}

// TieredMachine returns the machine spec extended to the given memory
// chain depth (2..4, per topology.TieredKNL). At Small scale the extra
// tiers are cut to the same 1/8 slice as the base machine — capacities
// and bandwidths divided by 8 — so the pressure ratios between tiers
// match the full machine's.
func (s Scale) TieredMachine(depth int) (topology.MachineSpec, error) {
	full, err := topology.TieredKNL(depth)
	if err != nil {
		return topology.MachineSpec{}, err
	}
	spec := s.Machine()
	spec.Name = full.Name
	tiers := make([]topology.TierSpec, len(full.ExtraTiers))
	copy(tiers, full.ExtraTiers)
	if s == Small {
		for i := range tiers {
			tiers[i].Cap /= 8
			tiers[i].ReadBW /= 8
			tiers[i].WriteBW /= 8
			tiers[i].TotalBW /= 8
		}
	}
	spec.ExtraTiers = tiers
	return spec, nil
}

// NumPEs returns the worker count for the scale (the paper uses 64 of
// the 68 cores).
func (s Scale) NumPEs() int {
	if s == Small {
		return 8
	}
	return 64
}

// HBMReserve returns the headroom kept free on HBM.
func (s Scale) HBMReserve() int64 {
	if s == Small {
		return GB / 8
	}
	return GB
}

// auditOn enables the invariant auditor on every environment the
// drivers build; auditEnvs collects those environments so DrainAudit
// can report their metrics and violations after the figures run. All
// drivers are single-threaded, so plain package state suffices.
var (
	auditOn   bool
	auditEnvs []*kernels.Env
)

// SetAudit switches invariant auditing on or off for subsequent driver
// runs and resets the collected-environment registry.
func SetAudit(on bool) {
	auditOn = on
	auditEnvs = nil
}

// DrainAudit returns one metrics snapshot per audited environment
// created since SetAudit, labelled, plus the total violation count
// across them. The registry is cleared.
func DrainAudit() ([]audit.Snapshot, int64) {
	var snaps []audit.Snapshot
	var violations int64
	for _, env := range auditEnvs {
		snap, ok := env.MG.AuditSnapshot()
		if !ok {
			continue
		}
		violations += snap.ViolationCount
		snaps = append(snaps, snap)
	}
	auditEnvs = nil
	return snaps, violations
}

// evictPolicy, when non-nil, is applied to every movement-mode
// environment the drivers build — the -evict-policy flag and the
// per-policy determinism/audit sweeps set it. Placement-only modes
// never evict, so they stay unconfigured (Validate rejects the combo).
var evictPolicy core.EvictPolicy

// SetEvictPolicy selects the eviction victim policy for subsequent
// driver runs (nil restores the DeclOrder default).
func SetEvictPolicy(p core.EvictPolicy) { evictPolicy = p }

// options returns paper-faithful manager options for a mode at this
// scale.
func (s Scale) options(mode core.Mode) core.Options {
	o := core.DefaultOptions(mode)
	o.HBMReserve = s.HBMReserve()
	o.Audit = auditOn
	if evictPolicy != nil && mode.Moves() {
		o.EvictPolicy = evictPolicy
	}
	return o
}

// newEnv builds a fresh environment for one run on the scale's
// machine.
func (s Scale) newEnv(opts core.Options, trace bool) *kernels.Env {
	return s.newEnvOn(s.Machine(), opts, trace)
}

// newEnvOn builds a fresh environment for one run on spec, a variant
// of the scale's machine (X5's NVM far memory, X14's deeper chains),
// and enrols it in the DrainAudit registry.
func (s Scale) newEnvOn(spec topology.MachineSpec, opts core.Options, trace bool) *kernels.Env {
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   spec,
		NumPEs: s.NumPEs(),
		Opts:   opts,
		Params: charm.DefaultParams(),
		Trace:  trace,
	})
	registerAudit(env)
	return env
}

// runner is what the kernels constructors build: an application that
// runs to completion on its manager's engine.
type runner interface{ Run() (sim.Time, error) }

// runApp builds an application from cfg on env's manager, runs it to
// completion and closes env. The app and env's counters, tracer and
// clock stay readable after the close.
func runApp[C any, A runner](env *kernels.Env, newApp func(*core.Manager, C) (A, error), cfg C) (A, sim.Time, error) {
	defer env.Close()
	app, err := newApp(env.MG, cfg)
	if err != nil {
		return app, 0, err
	}
	t, err := app.Run()
	return app, t, err
}

// registerAudit enrols an environment in the DrainAudit registry:
// newEnvOn's, and X8's cluster nodes, which the cluster builds.
func registerAudit(env *kernels.Env) {
	if auditOn && env.MG.Auditor() != nil {
		auditEnvs = append(auditEnvs, env)
	}
}

// StencilConfig returns the scale's Stencil3D configuration with the
// given reduced working set.
func (s Scale) StencilConfig(reduced int64) kernels.StencilConfig {
	cfg := kernels.DefaultStencilConfig()
	cfg.NumPEs = s.NumPEs()
	if s == Small {
		cfg.TotalBytes = 4 * GB
	}
	cfg.ReducedBytes = reduced
	return cfg
}

// overflowStencil returns the stencil at the Fig 8 sweep's overflow
// point, its largest reduced working set.
func (s Scale) overflowStencil() kernels.StencilConfig {
	sizes := s.StencilReducedSizes()
	return s.StencilConfig(sizes[len(sizes)-1])
}

// StencilReducedSizes returns the x-axis of Fig. 8 at this scale.
func (s Scale) StencilReducedSizes() []int64 {
	if s == Small {
		return []int64{GB / 4, GB / 2, GB}
	}
	return []int64{2 * GB, 4 * GB, 8 * GB}
}

// MatMulConfig returns the scale's MatMul configuration with the given
// total working set.
func (s Scale) MatMulConfig(total int64) kernels.MatMulConfig {
	cfg := kernels.DefaultMatMulConfig()
	cfg.NumPEs = s.NumPEs()
	cfg.TotalBytes = total
	if s == Small {
		// Keep the block-size-to-HBM proportion of the full machine.
		cfg.Grid = 8
	}
	return cfg
}

// MatMulTotalSizes returns the x-axis of Fig. 9 at this scale.
func (s Scale) MatMulTotalSizes() []int64 {
	if s == Small {
		return []int64{3 * GB, 9 * GB / 2, 27 * GB / 4}
	}
	return []int64{24 * GB, 36 * GB, 54 * GB}
}

// StrategyModes lists the data-movement strategies of §IV-B in figure
// order.
func StrategyModes() []core.Mode {
	return []core.Mode{core.SingleIO, core.NoIO, core.MultiIO}
}

// Table is a renderable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f2, f3 format floats for table cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// gbs formats a byte count in GB.
func gbs(b int64) string { return fmt.Sprintf("%.2g GB", float64(b)/float64(GB)) }
