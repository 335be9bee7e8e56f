package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/exp"
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
	fig1, err := exp.RunFig1(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := exp.RunFig7(exp.Small)
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

// TestUsageErrors: misspelled names exit 2 before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "x99"},
		{"-scale", "smal"},
		{"-only", "x1", "-skip-ext"},
		{"-evict-policy", "belady"},
		{"run", "-scale", "smal"},
		{"run", "-mode", "no"},
		{"run", "-app", "fft"},
		{"run", "-nodes", "2", "-trace", "f.jsonl"},
		{"run", "-nodes", "2", "-app", "matmul"},
		{"run", "-nodes", "2", "-adapt"},
		{"run", "-nodes", "2", "-tiers", "3"},
		{"run", "-scale", "small", "-nodes", "0"},
		{"run", "-scale", "small", "-nodes", "-3"},
		{"projections", "-scale", "smal"},
		{"stream", "extra"},
	} {
		code, out, errb := exec(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", args, code, errb)
		}
		if out != "" {
			t.Errorf("%v: printed %q before failing", args, out)
		}
	}
	code, _, errb := exec("-only", "x99")
	if code != 2 || !strings.Contains(errb, exp.ExperimentNames()) {
		t.Errorf("unknown -only name: exit %d, stderr %q does not list the valid names", code, errb)
	}
}

// TestRunSingle: the run subcommand honours -scale and the strategy
// names hmtrace and hetmemd use.
func TestRunSingle(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-app", "matmul", "-scale", "small"},
		{"run", "-scale", "small", "-mode", "noio", "-iters", "1"},
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
