package core

import (
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
)

// TestOptionsValidate covers the nonsensical-combination rejections:
// each invalid option set must fail with an error naming the problem.
func TestOptionsValidate(t *testing.T) {
	valid := func(mut func(*Options)) Options {
		o := DefaultOptions(SingleIO)
		mut(&o)
		return o
	}
	cases := []struct {
		name string
		opts Options
		want string // substring of the error; empty means valid
	}{
		{"default single", valid(func(o *Options) {}), ""},
		{"default multi", DefaultOptions(MultiIO), ""},
		{"io threads on single", valid(func(o *Options) { o.IOThreads = 4 }), ""},
		{"shared queue on single", valid(func(o *Options) { o.SharedWaitQueue = true }), ""},
		{"depth on multi", valid(func(o *Options) { o.Mode = MultiIO; o.PrefetchDepth = 2 }), ""},
		{"lazy on no-io", valid(func(o *Options) { o.Mode = NoIO; o.EvictLazily = true }), ""},

		{"unknown mode", valid(func(o *Options) { o.Mode = Mode(42) }), "unknown mode"},
		{"negative reserve", valid(func(o *Options) { o.HBMReserve = -1 }), "negative HBM reserve"},
		{"negative io threads", valid(func(o *Options) { o.IOThreads = -2 }), "negative IOThreads"},
		{"negative depth", valid(func(o *Options) { o.Mode = MultiIO; o.PrefetchDepth = -1 }), "negative PrefetchDepth"},
		{"shared queue on multi", valid(func(o *Options) { o.Mode = MultiIO; o.SharedWaitQueue = true }), "SharedWaitQueue"},
		{"shared queue on ddr", valid(func(o *Options) {
			o.Mode = DDROnly
			o.SharedWaitQueue = false
			o.Mode = DDROnly
			o.SharedWaitQueue = true
		}), "SharedWaitQueue"},
		{"io threads on multi", valid(func(o *Options) { o.Mode = MultiIO; o.IOThreads = 2 }), "IOThreads"},
		{"io threads on no-io", valid(func(o *Options) { o.Mode = NoIO; o.IOThreads = 2 }), "IOThreads"},
		{"depth on single", valid(func(o *Options) { o.PrefetchDepth = 2 }), "PrefetchDepth"},
		{"lazy on naive", valid(func(o *Options) { o.Mode = Baseline; o.EvictLazily = true }), "EvictLazily"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid options accepted: %+v", c.opts)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the problem (%q)", err, c.want)
			}
		})
	}
}

// TestNewManagerRejectsInvalidOptions: construction panics loudly on an
// invalid option set instead of running a different configuration.
func TestNewManagerRejectsInvalidOptions(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewManager accepted SharedWaitQueue under MultiIO")
		}
		if !strings.Contains(r.(string), "SharedWaitQueue") {
			t.Fatalf("panic %v does not name the problem", r)
		}
	}()
	env := newEnv(t, 2, DefaultOptions(SingleIO)) // engine/runtime scaffolding
	opts := DefaultOptions(MultiIO)
	opts.SharedWaitQueue = true
	NewManager(env.rt, opts)
}

// TestMetricsWithoutAudit: Options.Metrics alone collects counters but
// builds no auditor — the cheap half the adaptive controller runs on.
func TestMetricsWithoutAudit(t *testing.T) {
	opts := DefaultOptions(MultiIO)
	opts.Metrics = true
	env := newEnvNoAudit(t, 4, opts)
	app := buildApp(env, 12, 512*1024*1024, 2, nil)
	app.run(t)

	if env.mg.Auditor() != nil {
		t.Fatal("Metrics alone must not build an auditor")
	}
	if _, ok := env.mg.AuditSnapshot(); ok {
		t.Fatal("AuditSnapshot must report ok=false without Audit")
	}
	snap, ok := env.mg.MetricsSnapshot()
	if !ok {
		t.Fatal("MetricsSnapshot must work with Metrics alone")
	}
	if snap.Fetches == 0 || snap.HBMHighWater == 0 {
		t.Fatalf("metrics not collected: %+v", snap)
	}
	if hw := env.mg.Metrics().HBMHighWater(); hw != snap.HBMHighWater {
		t.Fatalf("HBMHighWater()/Snapshot disagree: %d vs %d", hw, snap.HBMHighWater)
	}
	if snap.Fetches != env.mg.Stats.Fetches || snap.FetchHist.N != snap.Fetches {
		t.Fatalf("snapshot counts %d fetches (%d histogram samples), Stats %d",
			snap.Fetches, snap.FetchHist.N, env.mg.Stats.Fetches)
	}
}

// newEnvNoAudit is newEnv without the forced auditor, for testing the
// metrics-only configuration.
func newEnvNoAudit(t *testing.T, numPEs int, opts Options) *env {
	t.Helper()
	e := sim.NewEngine(42)
	m := tinySpec().MustBuild(e)
	rt := charm.NewRuntime(m, numPEs, charm.DefaultParams())
	tr := projections.NewTracer(e, numPEs)
	rt.Attach(tr)
	mg := NewManager(rt, opts)
	t.Cleanup(e.Close)
	return &env{e: e, m: m, rt: rt, mg: mg, tr: tr}
}
