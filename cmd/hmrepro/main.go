// Command hmrepro runs the paper's figures (Figs. 1, 2, 5-6, 7, 8, 9)
// and the extension experiments X1-X15 from one registry,
// exp.Experiments, and prints one text table per experiment; hmrepro -h
// lists the experiment names.
//
// Usage:
//
//	hmrepro [-scale full|small] [-only a,b,...] [-skip-ext] [-audit]
//	        [-evict-policy decl|lru|lookahead] [-bench-dir DIR] [-trace FILE]
//	hmrepro run [-app stencil|matmul] [-mode multi] [-nodes N] ...  # one run
//	hmrepro stream [-threads 64] [-array BYTES] [-quadrant]         # Fig 1 STREAM
//	hmrepro projections [-scale small] [-timelines] [-json DIR]     # Figs 5-6 timelines
//
// The default sweep runs every experiment. A failed gate or audit
// violation exits 1 after every table has printed; usage errors exit 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"run": cmdRun, "stream": cmdStream, "projections": cmdProjections,
}

// run dispatches to a subcommand or the sweep and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && subcommands[args[0]] != nil {
		return subcommands[args[0]](args[1:], stdout, stderr)
	}
	return cmdSweep(args, stdout, stderr)
}

// cmdSweep runs the default sweep, or the experiments named by -only.
func cmdSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmrepro", flag.ContinueOnError)
	scaleName := fs.String("scale", "full", scaleUsage)
	only := fs.String("only", "", "run only these experiments (comma-separated names, run in registry order)")
	skipExt := fs.Bool("skip-ext", false, "limit the default sweep to the paper's figures (no X1-X15)")
	auditOn := fs.Bool("audit", false, "enable the invariant auditor and print JSON metrics per run")
	policyName := fs.String("evict-policy", "", "force an eviction victim policy on movement-mode runs: decl, lru or lookahead")
	benchDir := fs.String("bench-dir", "", "write the benchmark snapshot of each experiment that ran into this directory")
	traceOut := fs.String("trace", "", "write X11's sample capture (the Fig 8 overflow run) to this JSONL file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: hmrepro [flags]\n       hmrepro run|stream|projections [flags]\n\nexperiments: %s\n\nflags:\n",
			exp.ExperimentNames())
		fs.PrintDefaults()
	}
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	scale, err := exp.ParseScale(*scaleName)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	sw := &exp.Sweep{Scale: scale, Audit: *auditOn}
	if *policyName != "" {
		if sw.EvictPolicy, err = core.ParseEvictPolicy(*policyName); err != nil {
			return fail(stderr, 2, "%v", err)
		}
	}
	var exps []exp.Experiment
	switch {
	case *only != "" && *skipExt:
		return fail(stderr, 2, "-skip-ext limits the default sweep; it cannot be combined with -only")
	case *only != "":
		if exps, err = exp.Select(strings.Split(*only, ",")); err != nil {
			return fail(stderr, 2, "-only: %v", err)
		}
	default:
		for _, e := range exp.Experiments() {
			if !(*skipExt && e.Extension()) {
				exps = append(exps, e)
			}
		}
	}
	if *traceOut != "" && !slices.ContainsFunc(exps, func(e exp.Experiment) bool { return e.Name == "x11" }) {
		return fail(stderr, 2, "-trace writes X11's sample capture, and x11 is not among the experiments to run")
	}
	if *benchDir != "" {
		if err := os.MkdirAll(*benchDir, 0o755); err != nil {
			return fail(stderr, 1, "%v", err)
		}
	}

	// Only the default sweep opens with a header; -only prints bare tables.
	if *only == "" {
		fmt.Fprintf(stdout, "hetmem reproduction — %s scale\n\n", scale)
	}
	var sample *trace.Capture
	var violations int64
	gateFailed := false
	for _, e := range exps {
		// Wall-clock here times the reproduction itself for the stderr
		// progress note; every number on stdout is virtual-time.
		start := time.Now() //hmlint:ignore determinism wall-clock progress timing, stderr only
		audited := len(sw.Audits())
		o, err := e.Run(sw)
		if err != nil {
			return fail(stderr, 1, "%s: %v", e.Name, err)
		}
		fmt.Fprintln(stdout, o.Table)
		if *auditOn {
			v, err := printAudits(stdout, e.Name, "["+e.Name+"]", sw.Audits()[audited:])
			if err != nil {
				return fail(stderr, 1, "%s: %v", e.Name, err)
			}
			fmt.Fprintln(stdout)
			violations += v
		}
		if *benchDir != "" && o.Snapshot != nil {
			path := filepath.Join(*benchDir, e.Snapshot)
			if err := writeJSON(path, o.Snapshot); err != nil {
				return fail(stderr, 1, "%s: %v", e.Name, err)
			}
			fmt.Fprintf(stderr, "[bench snapshot written to %s]\n", path)
		}
		if o.Sample != nil {
			sample = o.Sample
		}
		if o.Gate != nil {
			fmt.Fprintf(stderr, "hmrepro: %s: gate failed: %v\n", e.Name, o.Gate)
			gateFailed = true
		}
		//hmlint:ignore determinism wall-clock progress note goes to stderr, not the tables
		fmt.Fprintf(stderr, "[%s done in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if *traceOut != "" {
		if err := sample.WriteFile(*traceOut); err != nil {
			return fail(stderr, 1, "trace: %v", err)
		}
		fmt.Fprintf(stderr, "[sample capture written to %s]\n", *traceOut)
	}
	if violations > 0 {
		return fail(stderr, 1, "audit: %d invariant violation(s) detected", violations)
	}
	if gateFailed {
		return 1
	}
	return 0
}

const scaleUsage = "experiment scale: full (paper sizes) or small (1/8 slice)"

// parse parses args into fs, reporting to stderr. On failure ok is
// false and code is the exit code: 0 for -h, 2 for a usage error.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	case fs.NArg() > 0:
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2, false
	}
	return 0, true
}

// fail prints an error to stderr and returns the exit code.
func fail(stderr io.Writer, code int, format string, a ...any) int {
	fmt.Fprintf(stderr, "hmrepro: "+format+"\n", a...)
	return code
}

// printAudits prints an experiment's audit snapshots, labelled
// "<name> run <i>", and returns their violation count.
func printAudits(w io.Writer, name, key string, snaps []audit.Snapshot) (int64, error) {
	var violations int64
	for i := range snaps {
		snaps[i].Label = fmt.Sprintf("%s run %d", name, i)
		violations += snaps[i].ViolationCount
	}
	if len(snaps) == 0 {
		snaps = nil // an experiment that executed no run prints null
	}
	return violations, printAudit(w, key, snaps)
}

// printAudit prints audit snapshots as indented JSON after "audit<key>: ".
func printAudit(w io.Writer, key string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		_, err = fmt.Fprintf(w, "audit%s: %s\n", key, out)
	}
	return err
}

// writeJSON writes v to path as indented JSON with a final newline.
func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	return err
}
