package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/serve"
)

// The serve-mix constants and specs mirror exp's X13 load leg (x13Seed,
// x13LoadSessions, x13GapFactors, x13Tenants, x13Workload, x13Config);
// the equivalence test holds them to exp.RunX13.
const serveSessions = 18

var (
	serveGaps = []struct {
		label  string
		factor float64
	}{{"low", 1.5}, {"med", 0.25}, {"high", 0.0625}}
	serveTenants = []string{"alpha", "beta", "gamma"}
	serveKernels = []string{"stencil", "shift"}
)

func serveUnit(s exp.Scale) int64 {
	if s == exp.Full {
		return 8 << 20
	}
	return 1 << 20
}

func serveSpec(s exp.Scale, tenant, kernel string) serve.WorkloadSpec {
	unit := serveUnit(s)
	return serve.WorkloadSpec{
		Tenant:     tenant,
		Kernel:     kernel,
		Bytes:      384 * unit,
		Reduced:    128 * unit,
		Footprint:  192 * unit,
		Iterations: 2,
		Sweeps:     4,
	}
}

func serveConfig(s exp.Scale) serve.Config {
	unit := serveUnit(s)
	grantable := s.Machine().HBMCap - s.HBMReserve()
	return serve.Config{
		Spec:    s.Machine(),
		NumPEs:  s.NumPEs(),
		Reserve: s.HBMReserve(),
		Fair:    true,
		Tenants: []serve.TenantConfig{
			{Name: "alpha", Budget: grantable / 5, Weight: 1},
			{Name: "beta", Budget: grantable / 5, Weight: 1},
			{Name: "gamma", Budget: grantable / 5, Weight: 1},
			{Name: "small", Budget: 192 * unit, Weight: 1},
			{Name: "hog", Budget: 4 * 160 * unit, Weight: 1},
		},
	}
}

// hetmemd is one service instance behind an httptest server, driven
// over one keep-alive loopback connection.
type hetmemd struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startHetmemd(s exp.Scale) (*hetmemd, error) {
	srv, err := serve.NewServer(serveConfig(s))
	if err != nil {
		return nil, err
	}
	return &hetmemd{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// do sends one request and decodes the JSON reply into out. It reads
// the body to the end so the connection is reused.
func (h *hetmemd) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

func (h *hetmemd) submit(spec serve.WorkloadSpec) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	var reply struct {
		ID string `json:"id"`
	}
	err = h.do(http.MethodPost, "/v1/sessions", raw, http.StatusAccepted, &reply)
	return reply.ID, err
}

func (h *hetmemd) stats() (serve.Stats, error) {
	var st serve.Stats
	return st, h.do(http.MethodGet, "/v1/stats", nil, http.StatusOK, &st)
}

// serveMix is the opened serve-mix workload.
type serveMix struct {
	s    exp.Scale
	seed int64
	// cal is X13's calibration: one standard session's makespan on an
	// idle service. The load gaps are multiples of it.
	cal float64
}

func openServeMix(s exp.Scale, seed int64) (instance, error) {
	m := &serveMix{s: s, seed: seed}
	h, err := startHetmemd(s)
	if err != nil {
		return instance{}, err
	}
	defer h.ts.Close()
	id, err := h.submit(serveSpec(s, "alpha", "stencil"))
	if err != nil {
		return instance{}, fmt.Errorf("serve-mix calibration: %w", err)
	}
	if err := h.srv.RunUntilIdle(0); err != nil {
		return instance{}, fmt.Errorf("serve-mix calibration: %w", err)
	}
	sess, err := h.srv.Scheduler().Session(id)
	if err != nil {
		return instance{}, err
	}
	if sess.State != serve.Done {
		return instance{}, fmt.Errorf("serve-mix calibration session %s: %s", sess.State, sess.Err)
	}
	m.cal = sess.Makespan()
	return instance{pass: m.pass}, nil
}

func (m *serveMix) pass(sp *spans, parent int) passResult {
	res := passResult{counts: map[string]float64{}}
	for _, g := range serveGaps {
		if err := m.load(g.label, g.factor*m.cal, sp, parent, &res); err != nil {
			res.fail(serveSessions, "load %s: %v", g.label, err)
		}
	}
	// load summed the running count over windows; make it a mean.
	if n := res.counts["serve.windows"]; n > 0 {
		res.counts["serve.mean_running"] /= n
	}
	return res
}

// load drives one arrival-rate point the way X13's load leg does:
// seeded-exponential arrivals quantised to window boundaries. Every
// window is one Server.Step followed by one GET /v1/stats, so the
// service reads its state between the writes.
func (m *serveMix) load(label string, meanGap float64, sp *spans, parent int, res *passResult) error {
	point := sp.begin("load "+label, parent)
	defer sp.end(point)
	t0 := time.Now()
	setup := sp.begin("setup", point)
	h, err := startHetmemd(m.s)
	sp.end(setup)
	res.setupS += time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	defer h.ts.Close()

	rng := rand.New(rand.NewSource(m.seed))
	arrivals := make([]float64, serveSessions)
	t := 0.0
	for i := range arrivals {
		t += rng.ExpFloat64() * meanGap
		arrivals[i] = t
	}
	window := func() (bool, error) {
		id := sp.begin("window", point)
		w0 := time.Now()
		active := h.srv.Step()
		res.windowsMs = append(res.windowsMs, msSince(w0))
		sp.end(id)
		id = sp.begin("stats", point)
		g0 := time.Now()
		st, err := h.stats()
		res.statsMs = append(res.statsMs, msSince(g0))
		sp.end(id)
		res.counts["serve.mean_running"] += float64(st.Running)
		return active, err
	}
	ids := make([]string, 0, serveSessions)
	for i, at := range arrivals {
		for h.srv.Scheduler().Now() < at {
			if _, err := window(); err != nil {
				return err
			}
		}
		res.attempted++
		id := sp.begin("submit", point)
		s0 := time.Now()
		sid, err := h.submit(serveSpec(m.s, serveTenants[i%len(serveTenants)], serveKernels[i%len(serveKernels)]))
		res.submitMs = append(res.submitMs, msSince(s0))
		sp.end(id)
		if err != nil {
			return fmt.Errorf("arrival %d: %w", i, err)
		}
		ids = append(ids, sid)
	}
	for active := true; active; {
		if active, err = window(); err != nil {
			return err
		}
	}
	res.counts["serve.windows"] += float64(h.srv.Scheduler().StatsSnapshot().Windows)

	// The row repeats X13's load-row arithmetic in the same order, so it
	// is bit-identical to the committed BENCH_serve.json rows.
	makespans := make([]float64, 0, len(ids))
	perTenant := map[string][]float64{}
	var lastFinish float64
	for _, id := range ids {
		sess, err := h.srv.Scheduler().Session(id)
		if err != nil {
			return err
		}
		if sess.State != serve.Done {
			res.fail(1, "load %s: session %s ended %s: %s", label, id, sess.State, sess.Err)
			continue
		}
		if snap, ok := sess.MetricsSnapshot(); ok {
			res.counts["core.fetches"] += float64(snap.Fetches)
			res.counts["core.evictions"] += float64(snap.Evictions)
			res.counts["core.refetches"] += float64(snap.Refetches)
			res.counts["core.forced_evictions"] += float64(snap.ForcedEvictions)
			res.counts["core.stage_retries"] += float64(snap.StageRetries)
			res.counts["core.fetch_busy_s"] += snap.FetchHist.Sum
			res.counts["sim.virtual_s"] += snap.Time
		}
		ms := sess.Makespan()
		makespans = append(makespans, ms)
		perTenant[sess.Tenant] = append(perTenant[sess.Tenant], ms)
		lastFinish = max(lastFinish, sess.Finished)
		res.units++
		res.virtualS += ms
	}
	if len(makespans) < len(ids) {
		return nil // failures already counted; no row to compare
	}
	var sum float64
	for _, ms := range makespans {
		sum += ms
	}
	var tenantMeans []float64
	for _, name := range serveTenants {
		if ms := perTenant[name]; len(ms) > 0 {
			var acc float64
			for _, v := range ms {
				acc += v
			}
			tenantMeans = append(tenantMeans, acc/float64(len(ms)))
		}
	}
	res.rows = append(res.rows, row{
		Label: label,
		Values: map[string]float64{
			"mean_gap_s":      meanGap,
			"sessions":        float64(len(ids)),
			"p50_makespan_s":  serve.Percentile(makespans, 0.50),
			"p99_makespan_s":  serve.Percentile(makespans, 0.99),
			"mean_makespan_s": sum / float64(len(makespans)),
			"jain_index":      exp.Jain(tenantMeans),
			"span_s":          lastFinish - arrivals[0],
		},
		runs: len(ids),
	})
	return nil
}

// serveRows converts BENCH_serve.json's load rows into pass rows.
func serveRows(b exp.X13Bench) []row {
	var rows []row
	for _, r := range b.Load {
		rows = append(rows, row{
			Label: r.Label,
			Values: map[string]float64{
				"mean_gap_s":      r.MeanGapS,
				"sessions":        float64(r.Sessions),
				"p50_makespan_s":  r.P50,
				"p99_makespan_s":  r.P99,
				"mean_makespan_s": r.Mean,
				"jain_index":      r.Jain,
				"span_s":          r.SpanS,
			},
			runs: r.Sessions,
		})
	}
	return rows
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
