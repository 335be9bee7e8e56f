package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metricDef describes one reported metric. Better is "lower" or
// "higher". Bound is the share of the parent's median by which the
// metric may get worse before compare calls it a regression; per-layer
// metrics have none. Exact marks deterministic values that any change
// meant only to speed the simulator up must leave identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"-"`
}

// endToEnd are BENCHMARK.json's end_to_end metrics, reported by every
// workload from the untraced passes.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// extraMetrics are end-to-end metrics that only some workloads have, or
// that are deterministic; they are printed and compared but are not in
// BENCHMARK.json.
var extraMetrics = []metricDef{
	{Name: "window_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "window_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "submit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "stats_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "virtual_s", Unit: "sim_s", Better: "lower", Exact: true},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Exact: true},
}

// perLayer are BENCHMARK.json's per_layer metrics. Every workload
// reports each one; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.events_per_task", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "charm.tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "memsim.gb_streamed", Unit: "GB", Better: "lower", Exact: true},
	{Name: "core.fetches", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.refetches", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.refetch_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.forced_evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.stage_retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.fetch_occupancy", Unit: "fetches", Better: "lower", Exact: true},
	{Name: "trace.capture_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.capture_mb", Unit: "MB", Better: "lower", Exact: true},
	{Name: "tune.candidates", Unit: "count", Better: "lower", Exact: true},
	{Name: "tune.replays", Unit: "count", Better: "lower", Exact: true},
	{Name: "tune.abandoned", Unit: "count", Better: "higher", Exact: true},
	{Name: "tune.memo_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.windows", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.mean_running", Unit: "sessions", Better: "lower", Exact: true},
	{Name: "trace.record_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.reconstruct_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "gc.mallocs", Unit: "count", Better: "lower"},
	{Name: "gc.mb_allocated", Unit: "MB", Better: "lower"},
	{Name: "gc.pause_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu.sim", Unit: "%", Better: "lower"},
	{Name: "cpu.sim.handoff", Unit: "%", Better: "lower"},
	{Name: "cpu.memsim", Unit: "%", Better: "lower"},
	{Name: "cpu.core", Unit: "%", Better: "lower"},
	{Name: "cpu.charm", Unit: "%", Better: "lower"},
	{Name: "cpu.numa", Unit: "%", Better: "lower"},
	{Name: "cpu.kernels", Unit: "%", Better: "lower"},
	{Name: "cpu.trace", Unit: "%", Better: "lower"},
	{Name: "cpu.tune", Unit: "%", Better: "lower"},
	{Name: "cpu.serve", Unit: "%", Better: "lower"},
	{Name: "cpu.gc", Unit: "%", Better: "lower"},
	{Name: "cpu.other", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

func allMetrics() []metricDef {
	return append(append(append([]metricDef(nil), endToEnd...), extraMetrics...), perLayer...)
}

// metric is one reported value; timed metrics carry the quartiles and
// the number of samples they were taken over.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is one workload invocation's result.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Rows      []row             `json:"rows"`
	Problems  []string          `json:"problems,omitempty"`
	// Spans is the traced run's span totals by name.
	Spans map[string]spanTotal `json:"spans,omitempty"`
}

// options configure one workload invocation.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	golden   []row // nil when no golden values apply
}

// minPasses is the fewest timed passes a run makes, so every timed
// metric has a median and quartiles.
const minPasses = 3

// timedPass is one timed pass with its Go runtime deltas.
type timedPass struct {
	res   passResult
	wallS float64
	gc    map[string]float64
}

func runPass(pass passFunc, sp *spans) timedPass {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := sp.begin("pass", 0)
	t0 := time.Now()
	res := pass(sp, id)
	wall := time.Since(t0).Seconds()
	sp.end(id)
	runtime.ReadMemStats(&after)
	return timedPass{res: res, wallS: wall, gc: map[string]float64{
		"gc.cycles":       float64(after.NumGC - before.NumGC),
		"gc.mallocs":      float64(after.Mallocs - before.Mallocs),
		"gc.mb_allocated": float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		"gc.pause_ms":     float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}}
}

// measure runs a warm-up pass, then at least minPasses timed passes
// filling o.seconds; a traced run then repeats as many passes under the
// CPU profiler with spans on.
func measure(w *workload, inst instance, o options) *report {
	rep := &report{Workload: w.name, Seed: o.seed, Traced: o.trace, Metrics: map[string]metric{}}
	ref := runPass(inst.pass, nil).res
	rep.Rows = ref.rows
	rep.Attempted, rep.Failed, rep.Problems = ref.attempted, ref.failed, ref.problems
	goldenFailed := checkGolden(rep, o.golden)

	// account folds a timed pass into the totals: its own failures, the
	// golden mismatches every faithful pass repeats, and any drift from
	// the warm-up pass's deterministic outputs.
	account := func(p passResult) {
		rep.Attempted += p.attempted
		rep.Failed += p.failed + goldenFailed
		rep.Problems = append(rep.Problems, p.problems...)
		if !reflect.DeepEqual(p.rows, ref.rows) || !reflect.DeepEqual(p.counts, ref.counts) {
			rep.Failed += p.attempted - p.failed
			rep.Problems = append(rep.Problems, "a timed pass's virtual results or counts differ from the warm-up pass")
		}
	}
	// A traced run splits its time between the plain passes and as many
	// profiled ones, so it takes about as long as an untraced run.
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	var plain []timedPass
	var walls []float64
	start := time.Now()
	// Stop once another pass would likely end more than half a pass past
	// the budget, so the timed passes take about budget seconds whatever
	// a pass costs.
	for len(plain) < minPasses || time.Since(start).Seconds()+median(walls)/2 < budget {
		p := runPass(inst.pass, nil)
		account(p.res)
		plain = append(plain, p)
		walls = append(walls, p.wallS)
	}
	fillEndToEnd(rep, plain)
	fillLayers(rep, ref, plain)
	if inst.probe != nil {
		for k, v := range inst.probe() {
			rep.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
		}
	}
	if o.trace {
		if err := traced(rep, inst, o, len(plain), account); err != nil {
			rep.Problems = append(rep.Problems, err.Error())
		}
	}
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.Name]; !ok && (o.trace || d.Exact) {
			rep.Metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
	rate := 0.0
	if rep.Attempted > 0 {
		rate = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Metrics["error_rate"] = metric{Value: rate, Unit: "ratio"}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	return rep
}

// traced repeats the timed passes under the CPU profiler with spans on,
// writes DIR/<workload>.pprof and DIR/<workload>.spans.json, and fills
// the cpu.* shares and the tracing overhead.
func traced(rep *report, inst instance, o options, n int, account func(passResult)) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, rep.Workload+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sp := newSpans()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	var walls []float64
	for i := 0; i < n; i++ {
		p := runPass(inst.pass, sp)
		account(p.res)
		walls = append(walls, p.wallS)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	rep.Spans = sp.totals()
	if err := sp.writeChrome(filepath.Join(o.traceDir, rep.Workload+".spans.json")); err != nil {
		return err
	}
	pf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer pf.Close()
	samples, err := readProfile(pf)
	if err != nil {
		return err
	}
	for layer, share := range cpuShares(samples) {
		rep.Metrics["cpu."+layer] = metric{Value: 100 * share, Unit: "%"}
	}
	plain := rep.Metrics["wall_s"].Value
	rep.Metrics["trace_overhead_pct"] = metric{Value: 100 * (median(walls)/plain - 1), Unit: "%", N: n}
	return nil
}

// fillEndToEnd computes the end-to-end metrics over the plain passes.
func fillEndToEnd(rep *report, passes []timedPass) {
	var walls, setups, rates, windows, submits, stats []float64
	for _, p := range passes {
		walls = append(walls, p.wallS)
		setups = append(setups, p.res.setupS)
		unitS := p.res.unitS
		if unitS == 0 {
			unitS = p.wallS
		}
		rates = append(rates, p.res.units/unitS)
		windows = append(windows, p.res.windowsMs...)
		submits = append(submits, p.res.submitMs...)
		stats = append(stats, p.res.statsMs...)
	}
	// Latency percentiles are pooled over every pass's samples.
	pooled := func(name string, xs []float64, q float64) {
		if len(xs) > 0 {
			rep.Metrics[name] = metric{Value: quantile(xs, q), Unit: unitOf(name), N: len(xs)}
		}
	}
	rep.Metrics["wall_s"] = perPass("wall_s", walls)
	rep.Metrics["setup_s"] = perPass("setup_s", setups)
	rep.Metrics["throughput_per_s"] = perPass("throughput_per_s", rates)
	pooled("window_p50_ms", windows, 0.5)
	pooled("window_p99_ms", windows, 0.99)
	pooled("submit_p50_ms", submits, 0.5)
	pooled("stats_p50_ms", stats, 0.5)
	rep.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	rep.Metrics["virtual_s"] = metric{Value: passes[0].res.virtualS, Unit: "sim_s"}
}

// fillLayers reports the deterministic counts of the warm-up pass and
// the medians of the host-measured per-layer values.
func fillLayers(rep *report, ref passResult, passes []timedPass) {
	c := ref.counts
	for _, d := range perLayer {
		if v, ok := c[d.Name]; ok {
			rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			rep.Metrics[name] = metric{Value: num / den, Unit: unitOf(name)}
		}
	}
	ratio("sim.events_per_task", c["sim.events"], c["charm.tasks"])
	ratio("core.refetch_ratio", c["core.refetches"], c["core.fetches"])
	ratio("core.fetch_occupancy", c["core.fetch_busy_s"], c["sim.virtual_s"])

	host := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p.res.rates {
			host[k] = append(host[k], v)
		}
		for k, v := range p.gc {
			host[k] = append(host[k], v)
		}
	}
	for k, xs := range host {
		rep.Metrics[k] = perPass(k, xs)
	}
}

// perPass summarises one value per pass as its median with quartiles.
func perPass(name string, xs []float64) metric {
	return metric{Value: median(xs), Unit: unitOf(name), P25: quantile(xs, 0.25), P75: quantile(xs, 0.75), N: len(xs)}
}

// checkGolden compares the warm-up rows with the golden rows. It returns
// how many runs each pass gets wrong, and records the mismatches.
func checkGolden(rep *report, golden []row) int {
	if golden == nil {
		return 0
	}
	got := map[string]row{}
	for _, r := range rep.Rows {
		got[r.Label] = r
	}
	failed := 0
	for _, g := range golden {
		r, ok := got[g.Label]
		switch {
		case !ok:
			rep.Problems = append(rep.Problems, fmt.Sprintf("golden row %q missing", g.Label))
		case !reflect.DeepEqual(r.Values, g.Values) || r.Note != g.Note:
			failed += r.runs
			rep.Problems = append(rep.Problems, fmt.Sprintf("row %q = %v %s, golden %v %s", g.Label, r.Values, r.Note, g.Values, g.Note))
		}
		delete(got, g.Label)
	}
	for label := range got {
		rep.Problems = append(rep.Problems, fmt.Sprintf("row %q has no golden value", label))
	}
	rep.Failed += failed
	return failed
}

func unitOf(name string) string {
	for _, d := range allMetrics() {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
