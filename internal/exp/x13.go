package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"github.com/hetmem/hetmem/internal/serve"
)

// X13 evaluates the multi-tenant service (internal/serve + hetmemd):
// sessions submitted over the real HTTP API (in-process httptest — no
// sockets, no wall clock anywhere in scheduling), scheduled in lockstep
// on the shared virtual clock with per-tenant HBM budgets and
// weighted-fair IO lanes. All numbers are virtual time, so X13 joins
// the byte-identical determinism suite: two consecutive runs must
// produce identical tables.
//
// Two legs:
//
//   - Load sweep: three symmetric tenants submit identical session
//     mixes (stencil/shift alternating) with seeded-exponential
//     interarrivals at low/medium/high rates. Reported: p50/p99/mean
//     session makespan (arrival to finish, queue wait included) and
//     Jain's fairness index across the per-tenant mean makespans —
//     symmetric demand should land J near 1.
//
//   - Budget isolation: a small tenant runs a closed-loop session
//     sequence while a hog tenant keeps several staging-heavy sessions
//     running. Per-tenant budgets guarantee the small tenant always
//     admits immediately; the question is bandwidth. With fair lanes
//     the small tenant's p99 must stay within BoundFactor of its
//     alone-run p99 (equal weights, two tenants: fair share is half
//     the fabric, plus scheduling slack); with fairness off the hog's
//     session count grabs the fabric and the small tenant degrades.
//     hmrepro gates the full-scale run on both conditions.

// X13BoundFactor is the isolation acceptance bound: the small tenant's
// fair-mode p99 must stay within this factor of its alone-run p99.
// With equal weights and two tenants the fair share is half the
// staging fabric; compute is unshared, so 2x is the worst case — the
// extra slack covers lane quantisation and window-boundary effects.
const X13BoundFactor = 2.2

// x13Seed seeds the arrival process of the load sweep.
const x13Seed = 42

// x13LoadSessions is the session count per load-sweep point (divisible
// by the tenant count so demand is symmetric).
const x13LoadSessions = 18

// x13SmallSessions is the closed-loop session count of the isolation
// leg's small tenant.
const x13SmallSessions = 4

// x13Hogs is how many hog sessions the isolation leg keeps running.
const x13Hogs = 4

// x13GapFactors scale the calibration makespan into the load sweep's
// mean interarrival gaps: 1.5x is underload (sessions mostly run
// alone), 0.25x queues moderately, 0.0625x saturates.
var x13GapFactors = []struct {
	Label  string
	Factor float64
}{
	{"low", 1.5},
	{"med", 0.25},
	{"high", 0.0625},
}

// x13Tenants is the load sweep's symmetric tenant set.
var x13Tenants = []string{"alpha", "beta", "gamma"}

// x13Unit is the size unit of X13's sessions and budgets: 1 MB at
// Small scale, 8 MB at Full.
func (s Scale) x13Unit() int64 {
	if s == Full {
		return 8 << 20
	}
	return 1 << 20
}

// x13Workload is the standard session submission at the scale: an
// out-of-core stencil (or shift) sized so three can run concurrently
// per tenant.
func (s Scale) x13Workload(tenant, kernel string) serve.WorkloadSpec {
	unit := s.x13Unit()
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

// x13Hog is the isolation leg's staging-heavy session: the footprint
// is below the active set, so the run refetches continuously and lives
// on the IO fabric.
func (s Scale) x13Hog() serve.WorkloadSpec {
	unit := s.x13Unit()
	return serve.WorkloadSpec{
		Tenant:     "hog",
		Kernel:     "stencil",
		Bytes:      768 * unit,
		Reduced:    256 * unit,
		Footprint:  160 * unit,
		Iterations: 2,
		Sweeps:     2,
	}
}

// x13Config builds the service config: three symmetric tenants for the
// load sweep plus the isolation pair, each with a third (resp. a
// dedicated slice) of the grantable budget.
func (s Scale) x13Config(fair bool) serve.Config {
	unit := s.x13Unit()
	grantable := s.Machine().HBMCap - s.HBMReserve()
	return serve.Config{
		Spec:    s.Machine(),
		NumPEs:  s.NumPEs(),
		Reserve: s.HBMReserve(),
		Fair:    fair,
		Audit:   auditOn,
		Tenants: []serve.TenantConfig{
			{Name: "alpha", Budget: grantable / 5, Weight: 1},
			{Name: "beta", Budget: grantable / 5, Weight: 1},
			{Name: "gamma", Budget: grantable / 5, Weight: 1},
			{Name: "small", Budget: 192 * unit, Weight: 1},
			{Name: "hog", Budget: int64(x13Hogs) * 160 * unit, Weight: 1},
		},
	}
}

// x13Srv wraps a serve.Server behind an in-process httptest server so
// the experiment exercises the real HTTP surface.
type x13Srv struct {
	ts  *httptest.Server
	srv *serve.Server
}

func newX13Srv(cfg serve.Config) (*x13Srv, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return &x13Srv{ts: httptest.NewServer(srv.Handler()), srv: srv}, nil
}

func (c *x13Srv) close() { c.ts.Close() }

// submit POSTs the spec and returns the created session id.
func (c *x13Srv) submit(spec serve.WorkloadSpec) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.ts.Client().Post(c.ts.URL+"/v1/sessions", "application/json", bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, body.Error)
	}
	return body.ID, nil
}

// session resolves an id. The driver is single-threaded (no Loop
// goroutine), so reading scheduler state directly is race-free.
func (c *x13Srv) session(id string) (*serve.Session, error) {
	return c.srv.Scheduler().Session(id)
}

// Jain computes Jain's fairness index (sum x)^2 / (n * sum x^2):
// 1 when all shares are equal, 1/n when one party holds everything.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// X13LoadRow is one arrival-rate point of the load sweep, as
// BENCH_serve.json records it.
type X13LoadRow struct {
	Label    string  `json:"label"`
	MeanGapS float64 `json:"mean_gap_s"`
	Sessions int     `json:"sessions"`
	P50      float64 `json:"p50_makespan_s"`
	P99      float64 `json:"p99_makespan_s"`
	Mean     float64 `json:"mean_makespan_s"`
	Jain     float64 `json:"jain_index"`
	SpanS    float64 `json:"span_s"` // virtual time from first arrival to last finish
}

// X13IsoRow is one isolation-leg run of the small tenant.
type X13IsoRow struct {
	Label    string
	Sessions int
	Mean     float64
	P99      float64
}

// X13Result holds both legs.
type X13Result struct {
	Scale Scale
	// CalibrationS is one standard session's alone makespan; the load
	// sweep's gaps are multiples of it.
	CalibrationS float64
	Load         []X13LoadRow

	Alone  X13IsoRow
	Fair   X13IsoRow
	Unfair X13IsoRow
	// BoundS is the isolation acceptance threshold:
	// X13BoundFactor * Alone.P99.
	BoundS          float64
	FairWithinBound bool
	FairBeatsUnfair bool
}

// Pass reports the isolation acceptance: fair-mode p99 within the
// bound AND better than unfair mode.
func (r *X13Result) Pass() bool { return r.FairWithinBound && r.FairBeatsUnfair }

// x13Calibrate measures one standard session's makespan on an idle
// service.
func x13Calibrate(s Scale) (float64, error) {
	c, err := newX13Srv(s.x13Config(true))
	if err != nil {
		return 0, err
	}
	defer c.close()
	id, err := c.submit(s.x13Workload("alpha", "stencil"))
	if err != nil {
		return 0, err
	}
	if err := c.srv.RunUntilIdle(0); err != nil {
		return 0, err
	}
	sess, err := c.session(id)
	if err != nil {
		return 0, err
	}
	if sess.State != serve.Done {
		return 0, fmt.Errorf("calibration session %s: %s", sess.State, sess.Err)
	}
	return float64(sess.Makespan()), nil
}

// x13RunLoad drives one arrival-rate point: open-loop submissions with
// seeded-exponential interarrivals, quantised to window boundaries
// (submissions happen between steps, never mid-window).
func x13RunLoad(s Scale, label string, meanGap float64) (X13LoadRow, error) {
	row := X13LoadRow{Label: label, MeanGapS: meanGap, Sessions: x13LoadSessions}
	c, err := newX13Srv(s.x13Config(true))
	if err != nil {
		return row, err
	}
	defer c.close()

	rng := rand.New(rand.NewSource(x13Seed))
	arrivals := make([]float64, x13LoadSessions)
	t := 0.0
	for i := range arrivals {
		t += rng.ExpFloat64() * meanGap
		arrivals[i] = t
	}
	kernelMix := []string{"stencil", "shift"}
	ids := make([]string, 0, x13LoadSessions)
	for i, at := range arrivals {
		for float64(c.srv.Scheduler().Now()) < at {
			c.srv.Step()
		}
		spec := s.x13Workload(x13Tenants[i%len(x13Tenants)], kernelMix[i%len(kernelMix)])
		id, err := c.submit(spec)
		if err != nil {
			return row, fmt.Errorf("x13 %s arrival %d: %w", label, i, err)
		}
		ids = append(ids, id)
	}
	if err := c.srv.RunUntilIdle(0); err != nil {
		return row, err
	}

	makespans := make([]float64, 0, len(ids))
	perTenant := make(map[string][]float64)
	var lastFinish float64
	for _, id := range ids {
		sess, err := c.session(id)
		if err != nil {
			return row, err
		}
		if sess.State != serve.Done {
			return row, fmt.Errorf("x13 %s: session %s ended %s: %s", label, id, sess.State, sess.Err)
		}
		m := float64(sess.Makespan())
		makespans = append(makespans, m)
		perTenant[sess.Tenant] = append(perTenant[sess.Tenant], m)
		if f := float64(sess.Finished); f > lastFinish {
			lastFinish = f
		}
	}
	row.P50 = serve.Percentile(makespans, 0.50)
	row.P99 = serve.Percentile(makespans, 0.99)
	var sum float64
	for _, m := range makespans {
		sum += m
	}
	row.Mean = sum / float64(len(makespans))
	row.SpanS = lastFinish - arrivals[0]

	// Jain over the per-tenant mean makespans, tenant walk in the
	// fixed registration order (determinism).
	var tenantMeans []float64
	for _, name := range x13Tenants {
		ms := perTenant[name]
		if len(ms) == 0 {
			continue
		}
		var acc float64
		for _, m := range ms {
			acc += m
		}
		tenantMeans = append(tenantMeans, acc/float64(len(ms)))
	}
	row.Jain = Jain(tenantMeans)
	return row, nil
}

// x13HogPressure counts the hog tenant's live (queued or running)
// sessions.
func x13HogPressure(c *x13Srv) int {
	n := 0
	for _, sess := range c.srv.Scheduler().Sessions() {
		if sess.Tenant == "hog" && !sess.State.Finished() {
			n++
		}
	}
	return n
}

// x13RunIso drives the isolation leg: the small tenant submits
// closed-loop (next session after the previous finishes) while the
// driver keeps nHogs hog sessions alive. Returns the small tenant's
// makespan stats.
func x13RunIso(s Scale, label string, fair bool, nHogs int) (X13IsoRow, error) {
	row := X13IsoRow{Label: label, Sessions: x13SmallSessions}
	c, err := newX13Srv(s.x13Config(fair))
	if err != nil {
		return row, err
	}
	defer c.close()

	hogBudget := 256 // submission cap: runaway guard, far above need
	topUpHogs := func() error {
		for x13HogPressure(c) < nHogs && hogBudget > 0 {
			hogBudget--
			if _, err := c.submit(s.x13Hog()); err != nil {
				return fmt.Errorf("x13 %s: hog submit: %w", label, err)
			}
		}
		return nil
	}

	var makespans []float64
	kernelMix := []string{"stencil", "shift"}
	for i := 0; i < x13SmallSessions; i++ {
		if err := topUpHogs(); err != nil {
			return row, err
		}
		id, err := c.submit(s.x13Workload("small", kernelMix[i%len(kernelMix)]))
		if err != nil {
			return row, fmt.Errorf("x13 %s: small submit %d: %w", label, i, err)
		}
		for w := 0; ; w++ {
			sess, err := c.session(id)
			if err != nil {
				return row, err
			}
			if sess.State.Finished() {
				if sess.State != serve.Done {
					return row, fmt.Errorf("x13 %s: small session %s ended %s: %s", label, id, sess.State, sess.Err)
				}
				makespans = append(makespans, float64(sess.Makespan()))
				break
			}
			if err := topUpHogs(); err != nil {
				return row, err
			}
			c.srv.Step()
			if w > 10_000_000 {
				return row, fmt.Errorf("x13 %s: small session %s stuck", label, id)
			}
		}
	}
	// Wind the hogs down without simulating them to completion: cancel
	// live hog sessions, then drain whatever is left.
	for _, sess := range c.srv.Scheduler().Sessions() {
		if sess.Tenant == "hog" && !sess.State.Finished() {
			req, err := http.NewRequest(http.MethodDelete, c.ts.URL+"/v1/sessions/"+sess.ID, nil)
			if err != nil {
				return row, err
			}
			resp, err := c.ts.Client().Do(req)
			if err != nil {
				return row, err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return row, fmt.Errorf("x13 %s: cancel %s: status %d", label, sess.ID, resp.StatusCode)
			}
		}
	}
	if err := c.srv.RunUntilIdle(0); err != nil {
		return row, err
	}

	row.P99 = serve.Percentile(makespans, 0.99)
	var sum float64
	for _, m := range makespans {
		sum += m
	}
	row.Mean = sum / float64(len(makespans))
	return row, nil
}

// RunX13 runs both legs at the scale.
func RunX13(s Scale) (*X13Result, error) {
	res := &X13Result{Scale: s}
	cal, err := x13Calibrate(s)
	if err != nil {
		return nil, fmt.Errorf("exp: x13 calibration: %w", err)
	}
	res.CalibrationS = cal

	for _, g := range x13GapFactors {
		row, err := x13RunLoad(s, g.Label, g.Factor*cal)
		if err != nil {
			return nil, fmt.Errorf("exp: x13 load %s: %w", g.Label, err)
		}
		res.Load = append(res.Load, row)
	}

	if res.Alone, err = x13RunIso(s, "alone", true, 0); err != nil {
		return nil, fmt.Errorf("exp: x13 isolation: %w", err)
	}
	if res.Fair, err = x13RunIso(s, "fair", true, x13Hogs); err != nil {
		return nil, fmt.Errorf("exp: x13 isolation: %w", err)
	}
	if res.Unfair, err = x13RunIso(s, "unfair", false, x13Hogs); err != nil {
		return nil, fmt.Errorf("exp: x13 isolation: %w", err)
	}
	res.BoundS = X13BoundFactor * res.Alone.P99
	res.FairWithinBound = res.Fair.P99 <= res.BoundS
	res.FairBeatsUnfair = res.Fair.P99 < res.Unfair.P99
	return res, nil
}

// Table renders X13.
func (r *X13Result) Table() Table {
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	t := Table{
		Title: fmt.Sprintf("X13 (%s): multi-tenant service — load sweep and budget isolation (virtual seconds)", r.Scale),
		Header: []string{"load", "mean gap", "sessions", "p50 makespan",
			"p99 makespan", "mean", "Jain"},
		Notes: []string{
			fmt.Sprintf("calibration: one session alone takes %s s; gaps are multiples of it", f3(r.CalibrationS)),
			"sessions arrive over the in-process HTTP API; makespans include queue wait",
			fmt.Sprintf("isolation (small tenant, %d sessions closed-loop vs %d staging-heavy hog sessions):",
				r.Alone.Sessions, x13Hogs),
			fmt.Sprintf("  alone p99 %s s | fair p99 %s s | unfair p99 %s s",
				f3(r.Alone.P99), f3(r.Fair.P99), f3(r.Unfair.P99)),
			fmt.Sprintf("  bound %.2fx alone = %s s; fair within bound: %v; fair beats unfair: %v -> %s",
				X13BoundFactor, f3(r.BoundS), r.FairWithinBound, r.FairBeatsUnfair, verdict),
		},
	}
	for _, row := range r.Load {
		t.Rows = append(t.Rows, []string{
			row.Label,
			f3(row.MeanGapS),
			fmt.Sprint(row.Sessions),
			f3(row.P50),
			f3(row.P99),
			f3(row.Mean),
			fmt.Sprintf("%.4f", row.Jain),
		})
	}
	return t
}

// X13IsoBench is the isolation leg in BENCH_serve.json.
type X13IsoBench struct {
	Sessions        int     `json:"sessions"`
	Hogs            int     `json:"hogs"`
	AloneP99        float64 `json:"alone_p99_s"`
	AloneMean       float64 `json:"alone_mean_s"`
	FairP99         float64 `json:"fair_p99_s"`
	FairMean        float64 `json:"fair_mean_s"`
	UnfairP99       float64 `json:"unfair_p99_s"`
	UnfairMean      float64 `json:"unfair_mean_s"`
	BoundFactor     float64 `json:"bound_factor"`
	BoundS          float64 `json:"bound_s"`
	FairWithinBound bool    `json:"fair_within_bound"`
	FairBeatsUnfair bool    `json:"fair_beats_unfair"`
	Pass            bool    `json:"pass"`
}

// X13Bench is the JSON snapshot X13 writes (BENCH_serve.json).
type X13Bench struct {
	Scale        string       `json:"scale"`
	CalibrationS float64      `json:"calibration_makespan_s"`
	Load         []X13LoadRow `json:"load"`
	Isolation    X13IsoBench  `json:"isolation"`
}

// Bench converts the result for JSON emission.
func (r *X13Result) Bench() X13Bench {
	return X13Bench{
		Scale:        r.Scale.String(),
		CalibrationS: r.CalibrationS,
		Load:         r.Load,
		Isolation: X13IsoBench{
			Sessions:        r.Alone.Sessions,
			Hogs:            x13Hogs,
			AloneP99:        r.Alone.P99,
			AloneMean:       r.Alone.Mean,
			FairP99:         r.Fair.P99,
			FairMean:        r.Fair.Mean,
			UnfairP99:       r.Unfair.P99,
			UnfairMean:      r.Unfair.Mean,
			BoundFactor:     X13BoundFactor,
			BoundS:          r.BoundS,
			FairWithinBound: r.FairWithinBound,
			FairBeatsUnfair: r.FairBeatsUnfair,
			Pass:            r.Pass(),
		},
	}
}
