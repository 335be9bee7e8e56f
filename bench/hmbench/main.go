// Command hmbench times the paper's workloads end to end on the real
// charm → core → numa/memsim → sim stack and splits the time by layer.
//
// Run from the repository root (bench/run.sh builds and runs it):
//
//	hmbench                          every workload, each in a child process
//	hmbench -workload fig8-stencil   one workload in this process
//	hmbench -trace 1                 add the profiled passes and per-layer metrics
//	hmbench -json out.json           also write the full reports
//	hmbench compare A.json… -- B.json…
//	hmbench -write-golden            regenerate bench/golden.json
//
// Every metric prints as "workload metric value unit"; a single-workload
// run ends with one JSON line holding correct, attempted, failed and the
// metrics (end-to-end ones, or per-layer ones with -trace 1).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

type flags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	json     string
	root     string
}

func run(args []string) int {
	var f flags
	fs := flag.NewFlagSet("hmbench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process)")
	fs.Int64Var(&f.seed, "seed", defaultSeed, "input seed; it drives serve-mix's arrivals, the other workloads have fixed inputs")
	fs.Float64Var(&f.seconds, "seconds", 12, "minimum seconds of timed passes per workload (at least 3 passes)")
	fs.IntVar(&f.trace, "trace", 0, "1 adds the profiled passes and reports the per-layer metrics")
	fs.StringVar(&f.traceDir, "trace-dir", "", "where a traced run writes profiles, spans and layers.json (default ROOT/.bench_build/trace)")
	fs.StringVar(&f.json, "json", "", "also write the full reports to this file")
	fs.StringVar(&f.root, "root", ".", "repository root, holding BENCH_serve.json and bench/golden.json")
	regen := fs.Bool("write-golden", false, "regenerate bench/golden.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return compareMain(fs.Args()[1:], os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "hmbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if f.trace != 0 && f.trace != 1 {
		fmt.Fprintln(os.Stderr, "hmbench: -trace must be 0 or 1")
		return 2
	}
	if f.traceDir == "" {
		f.traceDir = filepath.Join(f.root, ".bench_build", "trace")
	}
	if *regen {
		if err := writeGolden(f.root); err != nil {
			fmt.Fprintln(os.Stderr, "hmbench:", err)
			return 1
		}
		return 0
	}
	if f.workload == "" {
		return runAll(f)
	}
	w, ok := workloadByName(f.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "hmbench: unknown workload %q\n", f.workload)
		return 2
	}
	return runOne(w, f)
}

// runOne measures one workload in this process.
func runOne(w *workload, f flags) int {
	// The simulator runs one process at a time, so a second P only adds
	// cross-CPU wakeups to every goroutine handoff. On a shared VM those
	// wakeups cost whatever the hypervisor charges that minute (tune-shift
	// spread 18% at GOMAXPROCS=2 against 5% at 1 in interleaved runs),
	// and on another host the P count would change what is measured.
	runtime.GOMAXPROCS(1)
	golden, err := goldenFor(w, f.root, f.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmbench: golden values:", err)
		return 1
	}
	inst, err := w.open(w.scale, f.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmbench: %s: %v\n", w.name, err)
		return 1
	}
	rep := measure(w, inst, options{
		seed: f.seed, seconds: f.seconds, trace: f.trace == 1, traceDir: f.traceDir, golden: golden,
	})
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, p)
	}
	printMetrics(rep)
	if rep.Traced {
		if err := mergeLayers(filepath.Join(f.traceDir, "layers.json"), rep); err != nil {
			fmt.Fprintln(os.Stderr, "hmbench:", err)
			return 1
		}
	}
	if f.json != "" {
		if err := writeJSON(f.json, reportFile{Reports: []*report{rep}}); err != nil {
			fmt.Fprintln(os.Stderr, "hmbench:", err)
			return 1
		}
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{rep.Metrics[d.Name].Value, d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmbench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric the run measured, in catalogue order.
func printMetrics(rep *report) {
	for _, d := range allMetrics() {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", rep.Workload, d.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), d.Unit)
		if m.P25 != 0 || m.P75 != 0 {
			line += fmt.Sprintf(" p25=%s p75=%s", num(m.P25), num(m.P75))
		}
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Println(line)
	}
}

// runAll runs every workload in its own child process, so one
// workload's heap and peak RSS never bleed into the next.
func runAll(f flags) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmbench:", err)
		return 1
	}
	rc := 0
	var all reportFile
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(f.seed, 10),
			"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64), "-trace", strconv.Itoa(f.trace),
			"-trace-dir", f.traceDir, "-root", f.root}
		part := ""
		if f.json != "" {
			part = f.json + "." + w.name + ".part"
			args = append(args, "-json", part)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hmbench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "hmbench:", err)
			return 1
		}
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// The child's closing JSON line is its driver contract;
			// the per-metric lines above it already say everything.
			if !strings.HasPrefix(sc.Text(), "{") {
				fmt.Println(sc.Text())
			}
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "hmbench: %s: %v\n", w.name, err)
			rc = 1
		}
		if part != "" {
			raw, err := os.ReadFile(part)
			if err == nil {
				var pf reportFile
				err = json.Unmarshal(raw, &pf)
				all.Reports = append(all.Reports, pf.Reports...)
				_ = os.Remove(part) // a scratch file; a leftover is harmless
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "hmbench: %s report: %v\n", w.name, err)
				rc = 1
			}
		}
	}
	if f.json != "" {
		if err := writeJSON(f.json, all); err != nil {
			fmt.Fprintln(os.Stderr, "hmbench:", err)
			return 1
		}
	}
	return rc
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// mergeLayers records a traced run's per-layer metrics and span totals
// under its workload in layers.json, keeping the other workloads'.
func mergeLayers(path string, rep *report) error {
	all := map[string]any{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	layers := map[string]metric{}
	for _, d := range perLayer {
		layers[d.Name] = rep.Metrics[d.Name]
	}
	all[rep.Workload] = map[string]any{"seed": rep.Seed, "metrics": layers, "spans": rep.Spans}
	return writeJSON(path, all)
}
