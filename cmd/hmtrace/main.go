// Command hmtrace inspects, exports and replays hetmem capture files
// (the JSONL traces written by the kernel drivers' -trace flag).
//
// Usage:
//
//	hmtrace summary [-session id] trace.jsonl|capture-dir/
//	hmtrace export [-o out.json] trace.jsonl
//	hmtrace schedule trace.jsonl
//	hmtrace diff a.jsonl b.jsonl
//	hmtrace whatif [-strategy name] [-evict-policy name] [-evict-lazy=bool]
//	        [-io-threads n] [-prefetch-depth n] [-hbm-reserve bytes]
//	        [-abandon-above seconds] trace.jsonl
//	hmtrace tune [-o tune.json] [-no-abandon] trace.jsonl
//
// summary prints the terminal digest: per-lane occupancy, the share of
// staged time hidden under compute, and the exposed staging time. Given
// a directory (hetmemd's -capture-dir), it summarizes every *.jsonl
// capture in file-name order and closes with a per-tenant aggregate
// table; -session restricts the report to one hetmemd session id. When
// the capture (or directory) sits next to a tune.json artifact whose
// digest names one of the summarized captures, summary also prints the
// tune provenance — which knobs the offline autotuner recommended, and
// from which capture the verdict was computed.
// export converts the capture to Chrome trace_event JSON (load it in a
// trace viewer: one track per PE plus the IO-thread lanes). schedule
// prints the canonical per-task schedule used by the replay-fidelity
// invariant. whatif reconstructs the captured workload and re-drives it
// through the real scheduler under overridden knobs, then prints a
// recorded-vs-replayed comparison table; -abandon-above cuts the replay
// off as soon as its makespan provably reaches the bound (the answer
// becomes "at least that slow" — cheap for ruling configurations out).
// tune runs the offline autotuner over the capture: a grid-then-climb
// search of the retunable knob space, every candidate judged by real-
// scheduler replay, and writes the versioned RecommendedConfig artifact
// (default: tune.json next to the capture, where summary finds it).
// diff aligns two captures task-by-task and names the first divergent
// event — the tool to reach for when a determinism check reports two
// runs that should have been byte-identical but were not.
//
// Exit status: 0 on success; 2 when the capture is corrupt or
// truncated — the readable prefix is still processed and reported
// before exiting — or when whatif refuses a capture whose recorded
// memory tier chain does not match the machine its spec rebuilds.
// diff exits 1 when the captures differ.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/trace"
	"github.com/hetmem/hetmem/internal/tune"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: hmtrace <command> [flags] trace.jsonl

commands:
  summary    print occupancy, overlap and movement counters
             (a directory summarizes all captures + per-tenant totals;
             -session id filters hetmemd session traces)
  export     convert to Chrome trace_event JSON (-o file, default stdout)
  schedule   print the canonical per-task schedule
  diff       align two captures task-by-task and name the first divergence
  whatif     replay the workload under different knobs and compare
  tune       search the knob space by replay; write a RecommendedConfig
`

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprint(stderr, usage)
		return 1
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		return cmdSummary(rest, stdout, stderr)
	case "export":
		return cmdExport(rest, stdout, stderr)
	case "schedule":
		return cmdSchedule(rest, stdout, stderr)
	case "diff":
		return cmdDiff(rest, stdout, stderr)
	case "whatif":
		return cmdWhatIf(rest, stdout, stderr)
	case "tune":
		return cmdTune(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "hmtrace: unknown command %q\n%s", cmd, usage)
		return 1
	}
}

// load decodes a capture, reporting (but tolerating) corruption: the
// readable prefix is returned with damaged=true so commands can finish
// their report and then exit 2.
func load(path string, stderr io.Writer) (c *trace.Capture, damaged bool, ok bool) {
	c, err := trace.DecodeFile(path)
	if err == nil {
		return c, false, true
	}
	if c == nil || len(c.Events) == 0 {
		fmt.Fprintf(stderr, "hmtrace: %s: %v\n", path, err)
		return nil, true, false
	}
	fmt.Fprintf(stderr, "hmtrace: %s: %v (continuing with the %d events read)\n", path, err, len(c.Events))
	return c, true, true
}

// exitCode maps the damage flag to the final exit status.
func exitCode(damaged bool) int {
	if damaged {
		return 2
	}
	return 0
}

func onePath(fs *flag.FlagSet, stderr io.Writer) (string, bool) {
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "hmtrace %s: want exactly one trace file, got %d args\n", fs.Name(), fs.NArg())
		return "", false
	}
	return fs.Arg(0), true
}

func cmdSummary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	session := fs.String("session", "", "summarize only the capture with this session id (hetmemd traces)")
	if fs.Parse(args) != nil {
		return 1
	}
	path, ok := onePath(fs, stderr)
	if !ok {
		return 1
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return summarizeDir(path, *session, stdout, stderr)
	}
	c, damaged, ok := load(path, stderr)
	if !ok {
		return 2
	}
	if *session != "" && sessionOf(c) != *session {
		fmt.Fprintf(stderr, "hmtrace summary: %s holds session %q, not %q\n", path, sessionOf(c), *session)
		return 1
	}
	printSessionHeader(stdout, c)
	fmt.Fprint(stdout, trace.Summarize(c).String())
	if rc := tuneArtifactFor(filepath.Dir(path)); rc != nil && rc.CaptureDigest == tune.Digest(c) {
		printTuneProvenance(stdout, rc, filepath.Base(path))
	}
	return exitCode(damaged)
}

// tuneArtifactFor loads the tune artifact conventionally stored next to
// the captures (tune.ArtifactName inside dir), or nil when there is
// none (or it does not parse — provenance is garnish, never an error).
func tuneArtifactFor(dir string) *tune.RecommendedConfig {
	rc, err := tune.Load(filepath.Join(dir, tune.ArtifactName))
	if err != nil {
		return nil
	}
	return rc
}

// printTuneProvenance renders an artifact's verdict under a summary.
// match names the summarized capture whose digest the artifact carries
// ("" = the verdict came from a capture not in this report).
func printTuneProvenance(w io.Writer, rc *tune.RecommendedConfig, match string) {
	fmt.Fprintf(w, "\ntune provenance (%s):\n", tune.ArtifactName)
	fmt.Fprintf(w, "  recommends %s (predicted %.6f s", knobsBrief(rc.Knobs), rc.PredictedMakespanS)
	if rc.RecordedMakespanS > 0 {
		fmt.Fprintf(w, ", recorded %.6f s", rc.RecordedMakespanS)
	}
	fmt.Fprint(w, ")\n")
	fmt.Fprintf(w, "  search: %d candidates, %d replays (%d abandoned early, %d memo hits)\n",
		len(rc.Trace), rc.Replays, rc.Abandoned, rc.MemoHits)
	if match != "" {
		fmt.Fprintf(w, "  computed from %s (digest %.12s)\n", match, rc.CaptureDigest)
	} else {
		fmt.Fprintf(w, "  computed from digest %.12s (not among these captures)\n", rc.CaptureDigest)
	}
}

// sessionOf returns the session id stamped by hetmemd's recorder, or ""
// for plain kernel-driver captures.
func sessionOf(c *trace.Capture) string {
	if m := c.Meta(); m != nil {
		return m.Session
	}
	return ""
}

// printSessionHeader names the session and tenant when the capture has
// them (a hetmemd trace); plain captures print nothing extra.
func printSessionHeader(w io.Writer, c *trace.Capture) {
	if m := c.Meta(); m != nil && m.Session != "" {
		fmt.Fprintf(w, "session %s (tenant %s)\n", m.Session, m.Tenant)
	}
}

// tenantAgg accumulates per-tenant totals across a capture directory.
type tenantAgg struct {
	sessions  int
	tasks     int64
	fetches   int64
	evictions int64
	exposed   float64
	makespan  float64
}

// summarizeDir summarizes every *.jsonl capture in dir (sorted by file
// name, so hetmemd's <session-id>.jsonl layout reads in session order),
// optionally filtered to one session id, and closes with a per-tenant
// aggregate table. Damaged captures are reported and still aggregated
// from their readable prefix.
func summarizeDir(dir, session string, stdout, stderr io.Writer) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		fmt.Fprintf(stderr, "hmtrace summary: %v\n", err)
		return 2
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "hmtrace summary: no *.jsonl captures in %s\n", dir)
		return 1
	}
	agg := map[string]*tenantAgg{}
	var tenants []string
	digests := map[string]string{} // capture digest -> file base name
	matched, anyDamaged := 0, false
	for _, p := range paths {
		c, damaged, ok := load(p, stderr)
		if !ok {
			anyDamaged = true
			continue
		}
		if session != "" && sessionOf(c) != session {
			continue
		}
		digests[tune.Digest(c)] = filepath.Base(p)
		matched++
		anyDamaged = anyDamaged || damaged
		if matched > 1 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "== %s\n", filepath.Base(p))
		printSessionHeader(stdout, c)
		s := trace.Summarize(c)
		fmt.Fprint(stdout, s.String())

		tenant := "-"
		if m := c.Meta(); m != nil && m.Tenant != "" {
			tenant = m.Tenant
		}
		a := agg[tenant]
		if a == nil {
			a = &tenantAgg{}
			agg[tenant] = a
			tenants = append(tenants, tenant)
		}
		a.sessions++
		a.tasks += s.Tasks
		a.fetches += s.Fetches
		a.evictions += s.Evictions
		a.exposed += float64(s.ExposedStage)
		a.makespan += float64(s.Makespan)
	}
	if matched == 0 {
		if session != "" {
			fmt.Fprintf(stderr, "hmtrace summary: no capture in %s holds session %q\n", dir, session)
		}
		return 1
	}
	sort.Strings(tenants)
	fmt.Fprintf(stdout, "\nper-tenant totals (%d capture(s)):\n", matched)
	fmt.Fprintf(stdout, "%-12s %8s %10s %9s %10s %14s %14s\n",
		"tenant", "sessions", "tasks", "fetches", "evictions", "exposed (s)", "makespan (s)")
	for _, tn := range tenants {
		a := agg[tn]
		fmt.Fprintf(stdout, "%-12s %8d %10d %9d %10d %14.6f %14.6f\n",
			tn, a.sessions, a.tasks, a.fetches, a.evictions, a.exposed, a.makespan)
	}
	if rc := tuneArtifactFor(dir); rc != nil {
		printTuneProvenance(stdout, rc, digests[rc.CaptureDigest])
	}
	return exitCode(anyDamaged)
}

func cmdExport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write Chrome trace JSON to this file (default stdout)")
	if fs.Parse(args) != nil {
		return 1
	}
	path, ok := onePath(fs, stderr)
	if !ok {
		return 1
	}
	c, damaged, ok := load(path, stderr)
	if !ok {
		return 2
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "hmtrace export: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := trace.ExportChrome(c, w); err != nil {
		fmt.Fprintf(stderr, "hmtrace export: %v\n", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "[chrome trace written to %s]\n", *out)
	}
	return exitCode(damaged)
}

func cmdSchedule(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil {
		return 1
	}
	path, ok := onePath(fs, stderr)
	if !ok {
		return 1
	}
	c, damaged, ok := load(path, stderr)
	if !ok {
		return 2
	}
	fmt.Fprint(stdout, c.ScheduleString())
	return exitCode(damaged)
}

func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil {
		return 1
	}
	if fs.NArg() != 2 {
		fmt.Fprintf(stderr, "hmtrace diff: want exactly two trace files, got %d args\n", fs.NArg())
		return 1
	}
	a, damagedA, ok := load(fs.Arg(0), stderr)
	if !ok {
		return 2
	}
	b, damagedB, ok := load(fs.Arg(1), stderr)
	if !ok {
		return 2
	}
	r := trace.Diff(a, b)
	fmt.Fprint(stdout, r.String())
	if damagedA || damagedB {
		return 2
	}
	if !r.Identical {
		return 1
	}
	return 0
}

func cmdWhatIf(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	fs.SetOutput(stderr)
	strategy := fs.String("strategy", "", "override the movement strategy: ddr4only, naive, single, noio or multi")
	policy := fs.String("evict-policy", "", "override the eviction victim policy: decl, lru or lookahead")
	lazy := fs.Bool("evict-lazy", false, "override lazy eviction")
	ioThreads := fs.Int("io-threads", 0, "override the IO thread count (single strategy)")
	depth := fs.Int("prefetch-depth", 0, "override the prefetch depth (multi strategy; 0 = unlimited)")
	reserve := fs.Int64("hbm-reserve", 0, "override the HBM reserve in bytes")
	abandonAbove := fs.Float64("abandon-above", 0,
		"cut the replay off once its makespan provably reaches this many seconds (0 = replay fully)")
	if fs.Parse(args) != nil {
		return 1
	}
	path, ok := onePath(fs, stderr)
	if !ok {
		return 1
	}
	c, damaged, ok := load(path, stderr)
	if !ok {
		return 2
	}
	// The evaluator is the same replay path the tune search runs on; the
	// only whatif-specific part left is flag parsing and the table.
	ev, err := tune.NewEvaluator(c)
	if err != nil {
		fmt.Fprintf(stderr, "hmtrace whatif: %v\n", err)
		return 2
	}

	knobs := ev.Base()
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["strategy"] {
		mode, err := core.ParseMode(*strategy)
		if err != nil {
			fmt.Fprintf(stderr, "hmtrace whatif: %v\n", err)
			return 1
		}
		knobs.Mode = mode.String()
	}
	if set["evict-policy"] {
		if _, err := core.ParseEvictPolicy(*policy); err != nil {
			fmt.Fprintf(stderr, "hmtrace whatif: %v\n", err)
			return 1
		}
		knobs.EvictPolicy = *policy
	}
	if set["evict-lazy"] {
		knobs.EvictLazily = *lazy
	}
	if set["io-threads"] {
		knobs.IOThreads = *ioThreads
	}
	if set["prefetch-depth"] {
		knobs.PrefetchDepth = *depth
	}
	if set["hbm-reserve"] {
		knobs.HBMReserve = *reserve
	}

	res, err := ev.Replay(knobs, *abandonAbove)
	if err != nil {
		fmt.Fprintf(stderr, "hmtrace whatif: replay: %v\n", err)
		if errors.Is(err, trace.ErrTierMismatch) {
			// The capture is internally inconsistent with its own
			// spec — same class as a damaged capture.
			return 2
		}
		return 1
	}
	if res.Abandoned {
		fmt.Fprintf(stdout, "replay abandoned at %.6fs: under %s the makespan is provably >= %.6f s\n",
			res.Makespan, knobsBrief(knobs), res.Makespan)
		if st := c.Stats(); st != nil {
			fmt.Fprintf(stdout, "(recorded makespan was %.6f s)\n", st.Makespan)
		}
		return exitCode(damaged)
	}
	printComparison(stdout,
		trace.OutcomeOf("recorded", c),
		trace.OutcomeOf("replayed", res.Capture))
	return exitCode(damaged)
}

func cmdTune(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "artifact destination ('-' for stdout; default tune.json next to the capture)")
	noAbandon := fs.Bool("no-abandon", false, "replay every candidate to completion (slower, same verdict)")
	if fs.Parse(args) != nil {
		return 1
	}
	path, ok := onePath(fs, stderr)
	if !ok {
		return 1
	}
	c, damaged, ok := load(path, stderr)
	if !ok {
		return 2
	}
	rc, err := tune.Tune(c, tune.Config{NoAbandon: *noAbandon})
	if err != nil {
		fmt.Fprintf(stderr, "hmtrace tune: %v\n", err)
		if errors.Is(err, trace.ErrTierMismatch) {
			return 2
		}
		return 1
	}
	dest := *out
	if dest == "" {
		dest = filepath.Join(filepath.Dir(path), tune.ArtifactName)
	}
	if dest == "-" {
		if _, err := stdout.Write(rc.Bytes()); err != nil {
			fmt.Fprintf(stderr, "hmtrace tune: %v\n", err)
			return 1
		}
		return exitCode(damaged)
	}
	if err := rc.Save(dest); err != nil {
		fmt.Fprintf(stderr, "hmtrace tune: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "capture    %s (digest %.12s)\n", filepath.Base(path), rc.CaptureDigest)
	fmt.Fprintf(stdout, "recorded   %-40s %14.6f s\n", knobsBrief(rc.RecordedKnobs), rc.RecordedMakespanS)
	fmt.Fprintf(stdout, "recommends %-40s %14.6f s\n", knobsBrief(rc.Knobs), rc.PredictedMakespanS)
	if rc.RecordedMakespanS > 0 {
		fmt.Fprintf(stdout, "delta      %+.2f%%\n",
			(rc.PredictedMakespanS-rc.RecordedMakespanS)/rc.RecordedMakespanS*100)
	}
	fmt.Fprintf(stdout, "search     %d candidates, %d replays (%d abandoned early, %d memo hits)\n",
		len(rc.Trace), rc.Replays, rc.Abandoned, rc.MemoHits)
	fmt.Fprintf(stderr, "[recommended config written to %s]\n", dest)
	return exitCode(damaged)
}

// knobsBrief renders the replay-relevant knobs compactly.
func knobsBrief(k trace.Knobs) string {
	s := fmt.Sprintf("%s victim=%s", k.Mode, k.EvictPolicy)
	if k.EvictLazily {
		s += " lazy"
	}
	if k.IOThreads > 0 {
		s += fmt.Sprintf(" io=%d", k.IOThreads)
	}
	if k.PrefetchDepth > 0 {
		s += fmt.Sprintf(" depth=%d", k.PrefetchDepth)
	}
	return s
}

// printComparison renders the recorded-vs-replayed table with the
// relative makespan delta.
func printComparison(w io.Writer, rec, rep trace.Outcome) {
	fmt.Fprintf(w, "%-9s %14s %8s %8s %8s %7s %8s  %s\n",
		"", "makespan (s)", "fetches", "refetch", "evicted", "forced", "retries", "knobs")
	for _, o := range []trace.Outcome{rec, rep} {
		fmt.Fprintf(w, "%-9s %14.6f %8d %8d %8d %7d %8d  %s\n",
			o.Label, o.Makespan, o.Fetches, o.Refetches, o.Evictions,
			o.ForcedEvictions, o.StageRetries, knobsBrief(o.Knobs))
	}
	if rec.Makespan > 0 {
		d := (rep.Makespan - rec.Makespan) / rec.Makespan * 100
		fmt.Fprintf(w, "%-9s %+13.2f%%\n", "delta", d)
	}
}
