package main

import (
	"bytes"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/trace"
	"github.com/hetmem/hetmem/internal/tune"
)

// captureFile records a Small-scale stencil run into dir and returns
// the capture path.
func captureFile(t *testing.T, dir string) string {
	t.Helper()
	opts := core.DefaultOptions(core.MultiIO)
	opts.HBMReserve = exp.Small.HBMReserve()
	opts.Metrics = true
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: exp.Small.NumPEs(),
		Opts:   opts,
		Params: charm.DefaultParams(),
	})
	defer env.Close()
	rec := trace.NewRecorder(env.MG)
	rec.Attach()
	sizes := exp.Small.StencilReducedSizes()
	app, err := kernels.NewStencil(env.MG, exp.Small.StencilConfig(sizes[0]))
	if err != nil {
		t.Fatalf("NewStencil: %v", err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatalf("stencil run: %v", err)
	}
	path := filepath.Join(dir, "capture.jsonl")
	if err := rec.Capture().WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

// exec runs the command and returns (exit code, stdout, stderr).
func exec(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := captureFile(t, dir)

	t.Run("summary", func(t *testing.T) {
		code, out, _ := exec("summary", path)
		if code != 0 {
			t.Fatalf("exit %d, want 0", code)
		}
		for _, want := range []string{"capture:", "movement:", "overlap:", "lane"} {
			if !strings.Contains(out, want) {
				t.Errorf("summary output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("schedule", func(t *testing.T) {
		code, out, _ := exec("schedule", path)
		if code != 0 {
			t.Fatalf("exit %d, want 0", code)
		}
		if !strings.Contains(out, "stencil3d[0].") {
			t.Errorf("schedule output missing tasks:\n%s", out)
		}
	})

	t.Run("export", func(t *testing.T) {
		out := filepath.Join(dir, "chrome.json")
		code, _, _ := exec("export", "-o", out, path)
		if code != 0 {
			t.Fatalf("exit %d, want 0", code)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("read export: %v", err)
		}
		for _, want := range []string{"traceEvents", "thread_name", "PE 0"} {
			if !strings.Contains(string(b), want) {
				t.Errorf("chrome export missing %q", want)
			}
		}
	})

	t.Run("whatif", func(t *testing.T) {
		code, out, errb := exec("whatif", "-evict-policy", "lookahead", path)
		if code != 0 {
			t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
		}
		for _, want := range []string{"recorded", "replayed", "delta", "lookahead"} {
			if !strings.Contains(out, want) {
				t.Errorf("whatif output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("diff identical", func(t *testing.T) {
		code, out, errb := exec("diff", path, path)
		if code != 0 {
			t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
		}
		if !strings.Contains(out, "captures identical") {
			t.Errorf("diff output: %s", out)
		}
	})

	t.Run("diff divergent", func(t *testing.T) {
		// Re-capture with a different eviction policy: same tasks, a
		// different schedule.
		c, err := trace.DecodeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.Reconstruct(c)
		if err != nil {
			t.Fatal(err)
		}
		knobs := w.Meta.Knobs
		knobs.EvictPolicy = "lookahead"
		res, err := runner.Replay(w, runner.ReplayConfig{Knobs: &knobs})
		if err != nil {
			t.Fatal(err)
		}
		other := filepath.Join(dir, "other.jsonl")
		if err := res.Capture.WriteFile(other); err != nil {
			t.Fatal(err)
		}
		code, out, errb := exec("diff", path, other)
		if code != 1 {
			t.Fatalf("exit %d, want 1\nstderr: %s\nout: %s", code, errb, out)
		}
		for _, want := range []string{"captures differ", "first divergent event at index"} {
			if !strings.Contains(out, want) {
				t.Errorf("diff output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("diff wrong arity", func(t *testing.T) {
		if code, _, _ := exec("diff", path); code != 1 {
			t.Fatalf("diff with one file: exit %d, want 1", code)
		}
	})

	t.Run("whatif bad strategy", func(t *testing.T) {
		code, _, errb := exec("whatif", "-strategy", "bogus", path)
		if code != 1 {
			t.Fatalf("exit %d, want 1\nstderr: %s", code, errb)
		}
	})
}

// sessionCaptureFile records a Small-scale stencil run stamped with a
// hetmemd-style session id and tenant, writing it to dir/<id>.jsonl.
func sessionCaptureFile(t *testing.T, dir, id, tenant string) string {
	t.Helper()
	opts := core.DefaultOptions(core.MultiIO)
	opts.HBMReserve = exp.Small.HBMReserve()
	opts.Metrics = true
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: exp.Small.NumPEs(),
		Opts:   opts,
		Params: charm.DefaultParams(),
	})
	defer env.Close()
	rec := trace.NewSessionRecorder(env.MG, id, tenant)
	rec.Attach()
	sizes := exp.Small.StencilReducedSizes()
	app, err := kernels.NewStencil(env.MG, exp.Small.StencilConfig(sizes[0]))
	if err != nil {
		t.Fatalf("NewStencil: %v", err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatalf("stencil run: %v", err)
	}
	path := filepath.Join(dir, id+".jsonl")
	if err := rec.Capture().WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

// TestSummarySessions covers the hetmemd capture-dir workflow: summary
// over a directory of session traces, the per-tenant aggregate table,
// and the -session filter on both directories and single files.
func TestSummarySessions(t *testing.T) {
	dir := t.TempDir()
	sessionCaptureFile(t, dir, "s-0001", "acme")
	sessionCaptureFile(t, dir, "s-0002", "acme")
	sessionCaptureFile(t, dir, "s-0003", "beta")

	t.Run("directory aggregates per tenant", func(t *testing.T) {
		code, out, errb := exec("summary", dir)
		if code != 0 {
			t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
		}
		for _, want := range []string{
			"== s-0001.jsonl", "== s-0002.jsonl", "== s-0003.jsonl",
			"session s-0001 (tenant acme)", "session s-0003 (tenant beta)",
			"per-tenant totals (3 capture(s)):",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("directory summary missing %q:\n%s", want, out)
			}
		}
		// acme aggregated two sessions, beta one.
		acme, beta := false, false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 1 && f[0] == "acme" {
				acme = f[1] == "2"
			}
			if len(f) > 1 && f[0] == "beta" {
				beta = f[1] == "1"
			}
		}
		if !acme || !beta {
			t.Errorf("per-tenant session counts wrong:\n%s", out)
		}
	})

	t.Run("session filter on directory", func(t *testing.T) {
		code, out, errb := exec("summary", "-session", "s-0002", dir)
		if code != 0 {
			t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
		}
		if !strings.Contains(out, "== s-0002.jsonl") || strings.Contains(out, "== s-0001.jsonl") {
			t.Errorf("filter leaked other sessions:\n%s", out)
		}
		if !strings.Contains(out, "per-tenant totals (1 capture(s)):") {
			t.Errorf("filtered aggregate missing:\n%s", out)
		}
	})

	t.Run("session filter misses", func(t *testing.T) {
		code, _, errb := exec("summary", "-session", "nope", dir)
		if code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if !strings.Contains(errb, `no capture in`) {
			t.Errorf("stderr: %s", errb)
		}
	})

	t.Run("session filter on single file", func(t *testing.T) {
		path := filepath.Join(dir, "s-0001.jsonl")
		if code, out, _ := exec("summary", "-session", "s-0001", path); code != 0 || !strings.Contains(out, "tenant acme") {
			t.Fatalf("exit %d out:\n%s", code, out)
		}
		if code, _, errb := exec("summary", "-session", "s-0002", path); code != 1 || !strings.Contains(errb, "holds session") {
			t.Fatalf("mismatched -session on file: exit %d stderr: %s", code, errb)
		}
	})

	t.Run("empty directory", func(t *testing.T) {
		if code, _, _ := exec("summary", t.TempDir()); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
	})
}

func TestCorruptCapture(t *testing.T) {
	dir := t.TempDir()
	path := captureFile(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-line: the last event line loses its tail.
	trunc := filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(trunc, b[:len(b)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := exec("summary", trunc)
	if code != 2 {
		t.Fatalf("summary of truncated capture: exit %d, want 2\nstderr: %s", code, errb)
	}
	if !strings.Contains(out, "capture:") {
		t.Errorf("truncated summary printed no recovered results:\n%s", out)
	}
	if !strings.Contains(errb, "continuing with") {
		t.Errorf("stderr does not report partial recovery: %s", errb)
	}

	// Garbage from byte 0: nothing recoverable.
	junk := filepath.Join(dir, "junk.jsonl")
	if err := os.WriteFile(junk, []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := exec("summary", junk); code != 2 {
		t.Fatalf("summary of junk: exit %d, want 2", code)
	}

	// Missing file.
	if code, _, _ := exec("summary", filepath.Join(dir, "nope.jsonl")); code != 2 {
		t.Fatalf("summary of missing file: exit %d, want 2", code)
	}
}

// TestUnplaceableSendsFailReplay: a send no chare array can take — a
// negative element index, or an element placed outside the capture's
// PEs — makes whatif and tune exit 2 with an error, as other damaged
// captures do, instead of panicking while the replay is built.
func TestUnplaceableSendsFailReplay(t *testing.T) {
	b, err := os.ReadFile(sampleCapture)
	if err != nil {
		t.Fatal(err)
	}
	firstSend := regexp.MustCompile(`("k":"send".*"id":0,.*"idx":)1,`)
	chareOne := regexp.MustCompile(`("k":"send".*"arr":"stencil3d","idx":1,.*"pe":)\d+`)
	for _, tc := range []struct {
		name string
		re   *regexp.Regexp
		repl string
		want string
	}{
		{"negative index", firstSend, "${1}-1,", "stencil3d[-1], a negative index"},
		{"PE 999", chareOne, "${1}999", "stencil3d[1] on PE 999, outside the capture's 8 PEs"},
		{"PE -3", chareOne, "${1}-3", "stencil3d[1] on PE -3, outside the capture's 8 PEs"},
	} {
		damaged := tc.re.ReplaceAll(b, []byte(tc.repl))
		if bytes.Equal(damaged, b) {
			t.Fatalf("%s: the edit changed nothing", tc.name)
		}
		path := filepath.Join(t.TempDir(), "damaged.jsonl")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"whatif"}, {"tune", "-o", "-"}} {
			code, out, errb := exec(append(args, path)...)
			if code != 2 || out != "" || !strings.Contains(errb, tc.want) {
				t.Errorf("%s: %s exited %d with stdout %q, stderr %q; want 2, nothing, and %q",
					tc.name, args[0], code, out, errb, tc.want)
			}
		}
	}
}

// TestWhatIfRefusesRejectedKnobs: a knob set the manager would reject
// (options that fail Validate, or a reserve that leaves less HBM than
// one task's dependences) ends whatif with one stderr line and exit 1,
// as an unknown strategy does, not with a panic's stack trace. The
// command runs as its own process, so a panic would reach its stderr.
func TestWhatIfRefusesRejectedKnobs(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hmtrace")
	if out, err := osexec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ flags, want string }{
		{"-hbm-reserve 2140000000", "replay: trace: task 150 (stencil3d[0].compute_kernel) needs 134217728 dep bytes, exceeding the 7483648-byte HBM budget"},
		{"-hbm-reserve -1", "replay: core: negative HBM reserve -1"},
		{"-prefetch-depth -2", "replay: core: negative PrefetchDepth -2"},
		{"-io-threads -3", "replay: core: negative IOThreads -3"},
		{"-io-threads 4", "replay: core: IOThreads override is only meaningful for SingleIO, not Multiple IO threads (MultiIO always runs one per PE)"},
		{"-strategy single -prefetch-depth 2", "replay: core: PrefetchDepth is only meaningful for MultiIO, not Single IO thread"},
		// Inputs the replay would otherwise drop.
		{"-strategy naive -evict-policy lru", "-evict-policy needs a strategy that moves data (single, noio or multi), not Naive"},
		{"-abandon-above -1", "-abandon-above -1: want a bound in seconds, or 0 to replay fully"},
	} {
		args := append(append([]string{"whatif"}, strings.Fields(tc.flags)...), sampleCapture)
		var out, errb bytes.Buffer
		cmd := osexec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		cmd.Run()
		code := cmd.ProcessState.ExitCode()
		if code != 1 || out.Len() > 0 || strings.Contains(errb.String(), "goroutine") ||
			errb.String() != "hmtrace whatif: "+tc.want+"\n" {
			t.Errorf("whatif %s exited %d with stdout %q, stderr %q; want 1, nothing, and %q",
				tc.flags, code, out.String(), errb.String(), tc.want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := exec(); code != 1 {
		t.Fatalf("no args: exit %d, want 1", code)
	}
	if code, _, _ := exec("frobnicate"); code != 1 {
		t.Fatalf("unknown command: exit %d, want 1", code)
	}
	if code, _, _ := exec("summary"); code != 1 {
		t.Fatalf("summary without file: exit %d, want 1", code)
	}
	code, out, _ := exec("help")
	if code != 0 || !strings.Contains(out, "usage: hmtrace") {
		t.Fatalf("help: exit %d out %q", code, out)
	}
}

// TestTuneCommand covers the offline-autotuner CLI surface: the
// artifact lands next to the capture (where summary picks it up as
// provenance), two runs are byte-identical, and the recommended knobs
// feed straight back into whatif.
func TestTuneCommand(t *testing.T) {
	dir := t.TempDir()
	path := captureFile(t, dir)

	code, out, errb := exec("tune", path)
	if code != 0 {
		t.Fatalf("tune: exit %d, want 0\nstderr: %s", code, errb)
	}
	for _, want := range []string{"recorded", "recommends", "search"} {
		if !strings.Contains(out, want) {
			t.Errorf("tune output missing %q:\n%s", want, out)
		}
	}
	artifact := filepath.Join(dir, tune.ArtifactName)
	rc, err := tune.Load(artifact)
	if err != nil {
		t.Fatalf("tune wrote no loadable artifact: %v", err)
	}

	t.Run("byte identical", func(t *testing.T) {
		a := filepath.Join(dir, "a.json")
		b := filepath.Join(dir, "b.json")
		if code, _, errb := exec("tune", "-o", a, path); code != 0 {
			t.Fatalf("tune -o a: exit %d\n%s", code, errb)
		}
		if code, _, errb := exec("tune", "-o", b, path); code != 0 {
			t.Fatalf("tune -o b: exit %d\n%s", code, errb)
		}
		ba, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("two tune runs differ:\n%s\nvs\n%s", ba, bb)
		}
	})

	t.Run("summary provenance", func(t *testing.T) {
		code, out, _ := exec("summary", path)
		if code != 0 {
			t.Fatalf("summary: exit %d", code)
		}
		for _, want := range []string{"tune provenance", "recommends", "computed from capture.jsonl"} {
			if !strings.Contains(out, want) {
				t.Errorf("summary missing %q:\n%s", want, out)
			}
		}
		code, out, _ = exec("summary", dir)
		if code != 0 {
			t.Fatalf("summary dir: exit %d", code)
		}
		if !strings.Contains(out, "tune provenance") {
			t.Errorf("directory summary missing provenance:\n%s", out)
		}
	})

	t.Run("whatif recommended", func(t *testing.T) {
		args := []string{"whatif", "-evict-policy", rc.Knobs.EvictPolicy}
		if rc.Knobs.PrefetchDepth > 0 {
			args = append(args, "-prefetch-depth", fmt.Sprint(rc.Knobs.PrefetchDepth))
		}
		if rc.Knobs.IOThreads > 0 {
			args = append(args, "-io-threads", fmt.Sprint(rc.Knobs.IOThreads))
		}
		args = append(args, path)
		code, out, errb := exec(args...)
		if code != 0 {
			t.Fatalf("whatif under recommended knobs: exit %d\nstderr: %s", code, errb)
		}
		if !strings.Contains(out, "replayed") {
			t.Errorf("whatif output:\n%s", out)
		}
	})

	t.Run("whatif abandon", func(t *testing.T) {
		code, out, errb := exec("whatif", "-strategy", "single", "-abandon-above", "1e-6", path)
		if code != 0 {
			t.Fatalf("abandoning whatif: exit %d\nstderr: %s", code, errb)
		}
		if !strings.Contains(out, "provably >=") {
			t.Errorf("abandoned whatif did not report its lower bound:\n%s", out)
		}
	})

	t.Run("stdout artifact", func(t *testing.T) {
		code, out, _ := exec("tune", "-o", "-", path)
		if code != 0 {
			t.Fatalf("tune -o -: exit %d", code)
		}
		if !strings.Contains(out, `"version": 1`) {
			t.Errorf("stdout artifact malformed:\n%.400s", out)
		}
	})
}
