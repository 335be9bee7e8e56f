package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/stream"
	"github.com/hetmem/hetmem/internal/topology"
)

// cmdRun runs one Stencil3D or MatMul workload. The machine, PE count,
// HBM reserve and default sizes come from -scale.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmrepro run", flag.ContinueOnError)
	appName := fs.String("app", "stencil", "workload: stencil or matmul")
	scaleName := fs.String("scale", "full", scaleUsage)
	modeName := fs.String("mode", "multi", "strategy: ddr4only, naive, single, noio or multi")
	total := fs.Float64("total", 0, "total working set in GB (0 = the scale's: stencil 32, matmul 24 at full)")
	reduced := fs.Float64("reduced", 0, "stencil reduced working set in GB (0 = the scale's: 4 at full)")
	iters := fs.Int("iters", 4, "stencil outer iterations")
	grid := fs.Int("grid", 0, "matmul block grid side G (0 = the scale's: 16 at full)")
	nodes := fs.Int("nodes", 1, "stencil cluster size; above 1 runs the distributed stencil of X8")
	auditOn := fs.Bool("audit", false, "enable the invariant auditor and print a JSON metrics snapshot")
	adaptOn := fs.Bool("adapt", false, "attach the online adaptive controller and print its convergence trace")
	policyName := fs.String("evict-policy", "", "eviction victim policy for movement modes: decl, lru or lookahead")
	traceOut := fs.String("trace", "", "record the run as a JSONL capture to this file (inspect with hmtrace)")
	tiers := fs.Int("tiers", 2, "memory chain depth: 2 (HBM/DDR4), 3 (+NVM) or 4 (+remote pool)")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	scale, err := exp.ParseScale(*scaleName)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	mode, err := core.ParseMode(*modeName)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	if *adaptOn && !mode.Moves() {
		return fail(stderr, 2, "-adapt needs a mode that moves data (single, noio or multi), not %s", *modeName)
	}
	if *policyName != "" && !mode.Moves() {
		return fail(stderr, 2, "-evict-policy needs a mode that moves data (single, noio or multi), not %s", *modeName)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"total", *total}, {"reduced", *reduced}, {"grid", float64(*grid)}} {
		if f.v < 0 {
			return fail(stderr, 2, "-%s %g: want a positive size, or 0 for the scale's", f.name, f.v)
		}
	}
	sw := exp.Sweep{Scale: scale, Audit: *auditOn}
	if *policyName != "" {
		if sw.EvictPolicy, err = core.ParseEvictPolicy(*policyName); err != nil {
			return fail(stderr, 2, "%v", err)
		}
	}
	opts := sw.Options(mode)
	opts.Metrics = *auditOn || *adaptOn
	if *appName != "stencil" && *appName != "matmul" {
		return fail(stderr, 2, "unknown app %q (want stencil or matmul)", *appName)
	}
	// Each app reads its own sizing flags; the other app's are refused.
	unread := map[string][]string{"stencil": {"grid"}, "matmul": {"reduced", "iters"}}[*appName]
	var refused []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(unread, f.Name) {
			refused = append(refused, "-"+f.Name)
		}
	})
	if len(refused) > 0 {
		return fail(stderr, 2, "-app %s does not read %s", *appName, strings.Join(refused, " or "))
	}
	stencil := scale.StencilConfig(scale.StencilReducedSizes()[1])
	if *total > 0 {
		stencil.TotalBytes = gbBytes(*total)
	}
	if *reduced > 0 {
		stencil.ReducedBytes = gbBytes(*reduced)
	}
	if *iters < 1 {
		return fail(stderr, 2, "-iters %d: need at least one iteration", *iters)
	}
	stencil.Iterations = *iters
	if *nodes < 1 {
		return fail(stderr, 2, "-nodes %d: need at least one node", *nodes)
	}
	if *nodes > 1 {
		if *appName != "stencil" || *adaptOn || *traceOut != "" || *tiers != 2 {
			return fail(stderr, 2, "-nodes above 1 runs the distributed stencil only: no -app matmul, -adapt, -trace or -tiers")
		}
		if err := runCluster(stdout, scale, *nodes, stencil, opts); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		return 0
	}
	spec, err := scale.TieredMachine(*tiers)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}

	matmul := scale.MatMulConfig(scale.MatMulTotalSizes()[0])
	if *total > 0 {
		matmul.TotalBytes = gbBytes(*total)
	}
	if *grid > 0 {
		matmul.Grid = *grid
	}
	env := kernels.EnvConfig{Spec: spec, NumPEs: scale.NumPEs(), Opts: opts}
	r := runner.Run{EnvConfig: env, App: stencil, Adapt: runner.Adapt{On: *adaptOn}, Record: *traceOut != ""}
	if *appName == "matmul" {
		r.App = matmul
	}
	o, err := r.Execute()
	if err != nil {
		return fail(stderr, 1, "%v", err)
	}
	// Per app: report header, stats padding and audit label.
	pad, label := 14, fmt.Sprintf("stencil %s %gGB", mode, float64(stencil.TotalBytes)/(1<<30))
	if *appName == "stencil" {
		fmt.Fprintf(stdout, "Stencil3D %s: total %s, reduced %s, %d chares, %d iterations\n", mode,
			gb(stencil.TotalBytes), gb(stencil.ReducedBytes), stencil.NumChares(), stencil.Iterations)
		fmt.Fprintf(stdout, "  total time    %8.3f s (avg iteration %.3f s)\n", o.Time, o.AvgIter)
	} else {
		totalGB := float64(matmul.TotalBytes) / (1 << 30)
		pad, label = 11, fmt.Sprintf("matmul %s %gGB", mode, totalGB)
		fmt.Fprintf(stdout, "MatMul %s: %g GB total, %dx%d blocks, N=%.0f\n", mode, totalGB, matmul.Grid, matmul.Grid, matmul.N())
		fmt.Fprintf(stdout, "  total time %8.3f s\n", o.Time)
	}
	st := o.Stats
	fmt.Fprintf(stdout, "  %-*s%8d (%.1f GB)\n", pad, "fetches", st.Fetches, float64(st.BytesFetched)/float64(1<<30))
	fmt.Fprintf(stdout, "  %-*s%8d (%.1f GB)\n", pad, "evictions", st.Evictions, float64(st.BytesEvicted)/float64(1<<30))
	if v := o.Verdict; v != nil {
		fmt.Fprintf(stdout, "adaptive controller (settled window %d):\n", v.ConvergedWindow)
		for _, d := range v.Trace {
			fmt.Fprintf(stdout, "  %s\n", d)
		}
	}
	if c := o.Capture; c != nil {
		if err := c.WriteFile(*traceOut); err != nil {
			return fail(stderr, 1, "write trace: %v", err)
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s\n", len(c.Events), *traceOut)
	}
	if o.Audit != nil {
		snap := *o.Audit
		snap.Label = label
		if err := printAudit(stdout, "", snap); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		if snap.ViolationCount > 0 {
			return fail(stderr, 1, "audit: %d invariant violation(s) detected", snap.ViolationCount)
		}
	}
	return 0
}

// runCluster runs the distributed stencil, perNode on each of nodes,
// printing per-node audit snapshots when the auditor is on.
func runCluster(stdout io.Writer, scale exp.Scale, nodes int, perNode kernels.StencilConfig, opts core.Options) error {
	c, res, err := scale.RunClusterStencil(nodes, opts, perNode)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(stdout, "distributed Stencil3D, %d nodes x %d PEs, %s\n", nodes, scale.NumPEs(), opts.Mode)
	fmt.Fprintf(stdout, "  total %8.3f s   avg iteration %.3f s\n", res.Total, res.AvgIter)
	fmt.Fprintf(stdout, "  halo traffic %.2f GB in %d messages\n", res.NetBytes/float64(1<<30), res.NetMessages)
	for _, nd := range c.Nodes {
		snap, ok := nd.MG.AuditSnapshot()
		if !ok {
			continue
		}
		snap.Label = fmt.Sprintf("node %d", nd.ID)
		if err := printAudit(stdout, fmt.Sprintf("[node %d]", nd.ID), snap); err != nil {
			return err
		}
	}
	return nil
}

// cmdStream runs STREAM on the full machine's memory nodes (Fig 1).
func cmdStream(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmrepro stream", flag.ContinueOnError)
	threads := fs.Int("threads", 64, "concurrent STREAM threads")
	arrayBytes := fs.Int64("array", 256<<20, "per-thread STREAM array size in bytes")
	quadrant := fs.Bool("quadrant", false, "use quadrant cluster mode instead of all-to-all")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if *threads < 1 {
		return fail(stderr, 2, "-threads %d: need at least one thread", *threads)
	}
	if *arrayBytes < 1 {
		return fail(stderr, 2, "-array %d: want a positive size in bytes", *arrayBytes)
	}
	spec := topology.KNL7250()
	if *quadrant {
		spec.ClusterMode = topology.Quadrant
	}
	fmt.Fprintf(stdout, "%s, %s cluster mode, %d threads\n\n", spec.Name, spec.ClusterMode, *threads)
	for _, node := range []int{topology.DDRNodeID, topology.HBMNodeID} {
		results, err := stream.Measure(spec, node, *threads, *arrayBytes)
		if err != nil {
			return fail(stderr, 1, "%v", err)
		}
		for _, r := range results {
			fmt.Fprintln(stdout, r)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// cmdProjections prints the Figs 5-6 Projections analysis with ASCII
// timelines and optional per-strategy JSON span logs.
func cmdProjections(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmrepro projections", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "experiment scale: full or small (timelines are readable at small)")
	timelines := fs.Bool("timelines", true, "print ASCII activity timelines")
	jsonDir := fs.String("json", "", "directory to write per-strategy span logs (Projections JSON export)")
	auditOn := fs.Bool("audit", false, "enable the invariant auditor and print JSON metrics per run")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	scale, err := exp.ParseScale(*scaleName)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	sw := &exp.Sweep{Scale: scale, Audit: *auditOn}
	r, err := sw.Fig56()
	if err != nil {
		return fail(stderr, 1, "%v", err)
	}
	fmt.Fprintln(stdout, r.Table())
	if *auditOn {
		violations, err := printAudits(stdout, "fig56", "", sw.Audits())
		if err != nil {
			return fail(stderr, 1, "%v", err)
		}
		if violations > 0 {
			return fail(stderr, 1, "audit: %d invariant violation(s) detected", violations)
		}
	}
	modes := []core.Mode{core.Baseline, core.SingleIO, core.NoIO, core.MultiIO}
	if *timelines {
		for _, mode := range modes {
			fmt.Fprintf(stdout, "--- %s ---\n%s\n", mode, r.Runs[mode].Timeline)
		}
	}
	if *jsonDir == "" {
		return 0
	}
	if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
		return fail(stderr, 1, "%v", err)
	}
	for _, mode := range modes {
		path := filepath.Join(*jsonDir, strings.ReplaceAll(strings.ToLower(mode.String()), " ", "-")+".json")
		var buf bytes.Buffer
		if err := r.Runs[mode].WriteSpans(&buf); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return fail(stderr, 1, "%v", err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return 0
}

func gbBytes(g float64) int64 { return int64(g * (1 << 30)) }

func gb(b int64) string { return fmt.Sprintf("%.3g GB", float64(b)/float64(1<<30)) }
