package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/trace"
)

// exec runs the command in process and returns (exit code, stdout, stderr).
func exec(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestOnlyRunsEveryNamedExperiment: each name in -only runs, not just
// the last one.
func TestOnlyRunsEveryNamedExperiment(t *testing.T) {
	code, out, errb := exec("-only", "x9,x14", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	for _, title := range []string{"## X9:", "## X14:"} {
		if !strings.Contains(out, title) {
			t.Errorf("output lacks the %q table", title)
		}
	}
}

// TestOnlyPrintsTablesInRegistryOrder: -only prints exactly the named
// tables, in registry order whatever the order on the command line.
func TestOnlyPrintsTablesInRegistryOrder(t *testing.T) {
	code, out, errb := exec("-only", "fig7,fig1", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	fig1, err := (&exp.Sweep{Scale: exp.Small}).Fig1()
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := (&exp.Sweep{Scale: exp.Small}).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if want := fig1.Table().String() + "\n" + fig7.Table().String() + "\n"; out != want {
		t.Fatalf("stdout:\n%s\nwant:\n%s", out, want)
	}
}

// TestBenchDirWritesOnlyTheRunSnapshots: -bench-dir holds the snapshot
// of each experiment that ran and nothing else, byte for byte what the
// result's Bench() marshals to.
func TestBenchDirWritesOnlyTheRunSnapshots(t *testing.T) {
	dir := t.TempDir()
	if code, _, errb := exec("-only", "x13", "-scale", "small", "-bench-dir", dir); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "BENCH_serve.json" {
		t.Fatalf("bench dir holds %v, want only BENCH_serve.json", entries)
	}
	got, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.RunX13(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(r.Bench(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("BENCH_serve.json differs from exp.RunX13(exp.Small).Bench():\n%s\nwant:\n%s", got, want)
	}
}

// TestUsageErrors: misspelled names, -trace without X11 to write its
// capture, and -adapt with a mode that moves no data exit 2 before
// anything runs.
func TestUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hmrepro")
	if out, err := osexec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		code int
		args []string
	}{
		{2, []string{"-only", "x99"}},
		{2, []string{"-only", "x12"}},
		{2, []string{"-scale", "smal"}},
		{2, []string{"-only", "x1", "-skip-ext"}},
		{2, []string{"-evict-policy", "belady"}},
		{2, []string{"-scale", "small", "-only", "fig1", "-trace", "f.jsonl"}},
		{2, []string{"-scale", "small", "-skip-ext", "-trace", "f.jsonl"}},
		{2, []string{"run", "-scale", "smal"}},
		{2, []string{"run", "-mode", "no"}},
		{2, []string{"run", "-app", "fft"}},
		{2, []string{"run", "-scale", "small", "-app", "matmul", "-iters", "7", "-reduced", "0.5"}},
		{2, []string{"run", "-scale", "small", "-grid", "4"}},
		{2, []string{"run", "-scale", "small", "-adapt", "-mode", "naive"}},
		{2, []string{"run", "-scale", "small", "-adapt", "-mode", "ddr4only"}},
		{2, []string{"run", "-nodes", "2", "-trace", "f.jsonl"}},
		{2, []string{"run", "-nodes", "2", "-app", "matmul"}},
		{2, []string{"run", "-nodes", "2", "-adapt"}},
		{2, []string{"run", "-nodes", "2", "-tiers", "3"}},
		{2, []string{"run", "-scale", "small", "-nodes", "0"}},
		{2, []string{"run", "-scale", "small", "-nodes", "-3"}},
		// Inputs run would otherwise drop: a negative size means the
		// scale's default, and the victim policy of a mode that never
		// evicts.
		{2, []string{"run", "-scale", "small", "-app", "matmul", "-grid", "-1"}},
		{2, []string{"run", "-scale", "small", "-reduced", "-1"}},
		{2, []string{"run", "-scale", "small", "-total", "-2"}},
		{2, []string{"run", "-scale", "small", "-app", "matmul", "-total", "-2"}},
		{2, []string{"run", "-scale", "small", "-mode", "naive", "-evict-policy", "lru"}},
		{2, []string{"run", "-scale", "small", "-mode", "ddr4only", "-evict-policy", "decl"}},
		{2, []string{"projections", "-scale", "smal"}},
		{2, []string{"stream", "extra"}},
		// Runs the machine cannot hold: a task larger than the HBM
		// budget under a moving mode, and blocks the bottom tier cannot
		// place.
		{1, []string{"run", "-scale", "small", "-app", "matmul", "-grid", "1", "-mode", "multi"}},
		{1, []string{"run", "-scale", "small", "-app", "matmul", "-grid", "1", "-mode", "single"}},
		{1, []string{"run", "-scale", "small", "-app", "matmul", "-grid", "1", "-mode", "noio"}},
		{1, []string{"run", "-scale", "small", "-total", "200"}},
		{1, []string{"run", "-scale", "small", "-app", "matmul", "-total", "200"}},
		{1, []string{"run", "-total", "200"}},
		{1, []string{"run", "-scale", "small", "-total", "64", "-reduced", "60"}},
		{1, []string{"run", "-scale", "small", "-total", "64", "-reduced", "60", "-mode", "naive"}},
	} {
		var out, errb bytes.Buffer
		cmd := osexec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		cmd.Run()
		code := cmd.ProcessState.ExitCode()
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", tc.args, code, tc.code, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q before failing", tc.args, out.String())
		}
		if strings.Contains(errb.String(), "goroutine") {
			t.Errorf("%v: stderr holds a goroutine trace:\n%s", tc.args, errb.String())
		}
		if tc.code == 1 && strings.Count(errb.String(), "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line", tc.args, errb.String())
		}
	}
	for _, name := range []string{"x99", "x12"} {
		code, _, errb := exec("-only", name)
		if code != 2 || !strings.Contains(errb, exp.ExperimentNames()) {
			t.Errorf("unknown -only name %s: exit %d, stderr %q does not list the valid names", name, code, errb)
		}
	}
}

// TestRunSingle: the run subcommand honours -scale and the strategy
// names hmtrace and hetmemd use.
func TestRunSingle(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-app", "matmul", "-scale", "small"},
		{"run", "-scale", "small", "-mode", "noio", "-iters", "1"},
		// A task larger than the HBM budget runs where nothing moves.
		{"run", "-scale", "small", "-app", "matmul", "-grid", "1", "-mode", "naive"},
	} {
		code, out, errb := exec(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, want 0\nstderr: %s", args, code, errb)
		}
		for _, want := range []string{"total time", "fetches", "evictions"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, out)
			}
		}
	}
}

// TestRunMatMulAdapt: an adaptive matmul run prints the controller's
// trace. MatMul has no iteration barriers, so the controller closes a
// window every NumPEs task completions: the capture's first adapt event
// follows exactly that many.
func TestRunMatMulAdapt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	code, out, errb := exec("run", "-scale", "small", "-app", "matmul", "-adapt", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	for _, want := range []string{"adaptive controller (settled window ", "  w1["} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks the controller's trace (%q):\n%s", want, out)
		}
	}
	c, err := trace.DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, e := range c.Events {
		switch e.(type) {
		case *trace.TaskDone:
			done++
		case *trace.Adapt:
			if done != exp.Small.NumPEs() {
				t.Fatalf("first adapt event follows %d task completions, want %d", done, exp.Small.NumPEs())
			}
			return
		}
	}
	t.Fatal("capture has no adapt event")
}

// TestRunNodes: run -nodes drives the distributed stencil end to end,
// with halos on the fabric and one clean audit snapshot per node.
func TestRunNodes(t *testing.T) {
	code, out, errb := exec("run", "-scale", "small", "-nodes", "2", "-iters", "2", "-audit")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	var gbHalo float64
	var msgs int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  halo traffic ") {
			if _, err := fmt.Sscanf(line, "  halo traffic %g GB in %d messages", &gbHalo, &msgs); err != nil {
				t.Fatalf("halo line %q: %v", line, err)
			}
		}
	}
	if gbHalo <= 0 || msgs <= 0 {
		t.Fatalf("no halo traffic reported:\n%s", out)
	}
	if n := strings.Count(out, "audit[node "); n != 2 {
		t.Fatalf("%d audit snapshots, want one per node:\n%s", n, out)
	}
	for node := 0; node < 2; node++ {
		key := fmt.Sprintf("audit[node %d]: ", node)
		i := strings.Index(out, key)
		if i < 0 {
			t.Fatalf("no %q snapshot:\n%s", key, out)
		}
		var snap audit.Snapshot
		if err := json.NewDecoder(strings.NewReader(out[i+len(key):])).Decode(&snap); err != nil {
			t.Fatalf("node %d snapshot: %v", node, err)
		}
		if snap.ViolationCount != 0 || snap.Label != fmt.Sprintf("node %d", node) {
			t.Errorf("node %d snapshot: label %q, %d violation(s)", node, snap.Label, snap.ViolationCount)
		}
	}
}
