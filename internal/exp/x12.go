package exp

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hetmem/hetmem/internal/cluster"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/serve"
	"github.com/hetmem/hetmem/internal/sim"
)

// X12 benchmarks the engine hot path itself rather than a paper figure:
// every number here is host wall-clock, not virtual time, so X12 is
// deliberately excluded from the determinism suite and from hmrepro's
// default sweep (it runs only under -only x12).
//
// Two legs:
//
//   - Engine throughput: a synthetic scheduler-stress workload (64
//     lanes, each task fires one work event and replaces a far-future
//     guard timeout, so every task exercises Schedule, Cancel and the
//     free-list) at 10k/100k/1M tasks. Reported against a recorded
//     pre-overhaul baseline to keep the speedup claim honest across
//     future sessions.
//
//   - Cluster substrate: the X8 distributed stencil on the per-node
//     engine cluster, windows executed serially vs on goroutines.
//     The byte-identity of the two runs is asserted (and reported),
//     alongside both wall times. On a single-core host the parallel
//     wall time will not beat serial; the identity bit is the result
//     that must hold everywhere.

// X12BaselineTasksPerSec is the 1M-task throughput of this exact
// workload measured on the pre-overhaul engine (median of three runs on
// the reference container, recorded immediately before the pooled-event
// engine landed). Bench() reports current/baseline as the speedup.
const X12BaselineTasksPerSec = 673175.0

// x12TaskCounts are the engine-leg sweep points.
var x12TaskCounts = []int{10_000, 100_000, 1_000_000}

// X12EngineRow is one engine-throughput measurement.
type X12EngineRow struct {
	Tasks         int64
	WallSec       float64
	TasksPerSec   float64
	EventsPerSec  float64
	BytesPerEvent float64
	Scheduled     int64
	Cancelled     int64
	Reused        int64
}

// X12ClusterLeg compares serial vs goroutine-parallel window execution
// of the same parallel-cluster stencil run.
type X12ClusterLeg struct {
	Nodes           int
	SerialWallSec   float64
	ParallelWallSec float64
	Identical       bool
	VirtualTotal    float64
	Messages        int64
	Windows         int64
}

// X12ServeLeg measures the same 1M-task stress workload pushed through
// the serve scheduler as a multi-tenant session mix: the tasks are
// split across sessions on private engines, stepped in lockstep
// windows with budget accounting and IO-share recomputation between
// them. RelativeToRaw is serve's tasks/sec over the raw single-engine
// 1M row — the cost of the multi-tenant machinery on the hot path.
type X12ServeLeg struct {
	Sessions      int
	Tenants       int
	Tasks         int64
	WallSec       float64
	TasksPerSec   float64
	RelativeToRaw float64
	Windows       int64
}

// X12Result holds all three legs.
type X12Result struct {
	Scale   Scale
	Engine  []X12EngineRow
	Serve   X12ServeLeg
	Cluster X12ClusterLeg
}

// x12EngineRun drives the scheduler-stress workload for n tasks on a
// fresh engine. Per task: cancel the lane's previous guard, do the
// work, schedule the next work event and a new far-future guard. The
// guards are the point — they force one Schedule+Cancel pair per task,
// the pattern that used to leak dead events into the heap.
func x12EngineRun(n int) X12EngineRow {
	eng := sim.NewEngine(1)
	defer eng.Close()
	const lanes = 64
	const period = 1e-6
	const guardDelay = 1e3
	guards := make([]sim.EventHandle, lanes)
	remaining := make([]int, lanes)
	for i := range remaining {
		remaining[i] = n / lanes
	}

	var tasks int64
	var step func(lane int)
	step = func(lane int) {
		guards[lane].Cancel()
		tasks++
		remaining[lane]--
		if remaining[lane] > 0 {
			lane := lane
			eng.After(period, func() { step(lane) })
		}
		guards[lane] = eng.After(guardDelay, func() {})
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //hmlint:ignore determinism X12 measures host wall-clock by design

	for i := 0; i < lanes; i++ {
		lane := i
		eng.After(period, func() { step(lane) })
	}
	eng.RunAll()

	wall := time.Since(start).Seconds() //hmlint:ignore determinism X12 measures host wall-clock by design
	runtime.ReadMemStats(&after)
	st := eng.EventStats()
	fired := float64(st.Fired)
	return X12EngineRow{
		Tasks:         tasks,
		WallSec:       wall,
		TasksPerSec:   float64(tasks) / wall,
		EventsPerSec:  fired / wall,
		BytesPerEvent: float64(after.TotalAlloc-before.TotalAlloc) / fired,
		Scheduled:     st.Scheduled,
		Cancelled:     st.Cancelled,
		Reused:        st.Reused,
	}
}

// x12StressApp adapts the engine-leg stress workload to the serve App
// interface: the same 64-lane Schedule+Cancel pattern, running on a
// session's private engine under the multi-tenant scheduler.
type x12StressApp struct {
	eng       *sim.Engine
	total     int64
	tasks     int64
	end       sim.Time
	guards    []sim.EventHandle
	remaining []int
}

func newX12StressApp(eng *sim.Engine, n int) *x12StressApp {
	const lanes = 64
	a := &x12StressApp{
		eng:       eng,
		guards:    make([]sim.EventHandle, lanes),
		remaining: make([]int, lanes),
	}
	for i := range a.remaining {
		a.remaining[i] = n / lanes
		a.total += int64(n / lanes)
	}
	return a
}

func (a *x12StressApp) Start() {
	const period = 1e-6
	const guardDelay = 1e3
	var step func(lane int)
	step = func(lane int) {
		a.guards[lane].Cancel()
		a.tasks++
		a.remaining[lane]--
		if a.tasks >= a.total {
			a.end = a.eng.Now()
		}
		if a.remaining[lane] > 0 {
			lane := lane
			a.eng.After(period, func() { step(lane) })
		}
		a.guards[lane] = a.eng.After(guardDelay, func() {})
	}
	for i := range a.remaining {
		lane := i
		a.eng.After(period, func() { step(lane) })
	}
}

func (a *x12StressApp) Done() bool           { return a.total > 0 && a.tasks >= a.total }
func (a *x12StressApp) FinishedAt() sim.Time { return a.end }

// x12ServeRun pushes the 1M-task point through the serve scheduler as
// 8 sessions across 4 tenants and measures wall-clock throughput.
func x12ServeRun(s Scale, raw *X12EngineRow) (X12ServeLeg, error) {
	const nSessions = 8
	const nTenants = 4
	leg := X12ServeLeg{Sessions: nSessions, Tenants: nTenants}
	perSession := 1_000_000 / nSessions

	sched, err := serve.NewScheduler(serve.Config{
		Spec:    s.Machine(),
		NumPEs:  s.NumPEs(),
		Reserve: s.HBMReserve(),
		Fair:    true,
	})
	if err != nil {
		return leg, err
	}
	sched.RegisterKernel("stress", func(env *kernels.Env, spec serve.WorkloadSpec) (serve.App, error) {
		return newX12StressApp(env.Eng, perSession), nil
	})

	start := time.Now() //hmlint:ignore determinism X12 measures host wall-clock by design
	for i := 0; i < nSessions; i++ {
		sess, err := sched.Submit(serve.WorkloadSpec{
			Tenant:    fmt.Sprintf("t%d", i%nTenants),
			Kernel:    "stress",
			Bytes:     32 << 20,
			Reduced:   8 << 20,
			Footprint: 16 << 20,
		})
		if err != nil {
			return leg, fmt.Errorf("stress session %d: %w", i, err)
		}
		if sess.State != serve.Running {
			return leg, fmt.Errorf("stress session %d queued; budgets must admit all %d", i, nSessions)
		}
	}
	if err := sched.RunUntilIdle(0); err != nil {
		return leg, err
	}
	leg.WallSec = time.Since(start).Seconds() //hmlint:ignore determinism X12 measures host wall-clock by design

	for _, sess := range sched.Sessions() {
		if sess.State != serve.Done {
			return leg, fmt.Errorf("stress session %s ended %s: %s", sess.ID, sess.State, sess.Err)
		}
	}
	// Each session runs lanes*(perSession/lanes) tasks (64 lanes).
	leg.Tasks = int64(nSessions * (perSession / 64) * 64)
	leg.TasksPerSec = float64(leg.Tasks) / leg.WallSec
	if raw != nil && raw.TasksPerSec > 0 {
		leg.RelativeToRaw = leg.TasksPerSec / raw.TasksPerSec
	}
	leg.Windows = sched.StatsSnapshot().Windows
	return leg, nil
}

// x12ClusterRun executes the X8 stencil on a parallel cluster and
// returns its signature, result and wall time.
func x12ClusterRun(s Scale, nodes int, parallel bool) (string, *cluster.StencilResult, *cluster.PCluster, float64, error) {
	perNode := s.StencilConfig(s.StencilReducedSizes()[1])
	perNode.Iterations = 3
	pc, err := cluster.NewParallel(cluster.Config{
		Nodes:  nodes,
		Spec:   s.Machine(),
		NumPEs: s.NumPEs(),
		Opts:   s.options(core.MultiIO),
		Net:    cluster.DefaultNetwork(),
	}, parallel)
	if err != nil {
		return "", nil, nil, 0, err
	}
	start := time.Now() //hmlint:ignore determinism X12 measures host wall-clock by design
	res, err := cluster.RunStencilParallel(pc, cluster.StencilConfig{PerNode: perNode, Nodes: nodes})
	wall := time.Since(start).Seconds() //hmlint:ignore determinism X12 measures host wall-clock by design
	if err != nil {
		pc.Close()
		return "", nil, nil, 0, err
	}
	for i, nd := range pc.Nodes {
		nd.MG.Auditor().CheckQuiescent()
		if aerr := nd.MG.Auditor().Err(); aerr != nil {
			pc.Close()
			return "", nil, nil, 0, fmt.Errorf("node %d: %w", i, aerr)
		}
	}
	return pc.Signature(res), res, pc, wall, nil
}

// RunX12 runs both legs at the given scale.
func RunX12(s Scale) (*X12Result, error) {
	res := &X12Result{Scale: s}
	for _, n := range x12TaskCounts {
		res.Engine = append(res.Engine, x12EngineRun(n))
	}

	serveLeg, err := x12ServeRun(s, res.row1M())
	if err != nil {
		return nil, fmt.Errorf("exp: x12 serve leg: %w", err)
	}
	res.Serve = serveLeg

	nodes := 8
	if s == Full {
		nodes = 4
	}
	serialSig, _, spc, serialWall, err := x12ClusterRun(s, nodes, false)
	if err != nil {
		return nil, fmt.Errorf("exp: x12 serial cluster: %w", err)
	}
	defer spc.Close()
	parallelSig, pres, ppc, parallelWall, err := x12ClusterRun(s, nodes, true)
	if err != nil {
		return nil, fmt.Errorf("exp: x12 parallel cluster: %w", err)
	}
	defer ppc.Close()
	res.Cluster = X12ClusterLeg{
		Nodes:           nodes,
		SerialWallSec:   serialWall,
		ParallelWallSec: parallelWall,
		Identical:       serialSig == parallelSig,
		VirtualTotal:    float64(pres.Total),
		Messages:        ppc.Stats.Messages,
		Windows:         ppc.Stats.Windows,
	}
	return res, nil
}

// row1M returns the largest engine sweep point (the one the baseline
// and the acceptance speedup are pinned to).
func (r *X12Result) row1M() *X12EngineRow {
	if len(r.Engine) == 0 {
		return nil
	}
	best := &r.Engine[0]
	for i := range r.Engine {
		if r.Engine[i].Tasks > best.Tasks {
			best = &r.Engine[i]
		}
	}
	return best
}

// Speedup is the 1M-point throughput over the recorded pre-overhaul
// baseline.
func (r *X12Result) Speedup() float64 {
	if row := r.row1M(); row != nil {
		return row.TasksPerSec / X12BaselineTasksPerSec
	}
	return 0
}

// Table renders X12. Unlike every other table, the numbers are host
// wall-clock: this is a benchmark of the simulator, not a simulation.
func (r *X12Result) Table() Table {
	verdict := "BYTE-IDENTICAL"
	if !r.Cluster.Identical {
		verdict = "DIVERGED"
	}
	t := Table{
		Title: "X12: engine hot-path throughput (host wall-clock, not virtual time)",
		Header: []string{"tasks", "wall (s)", "tasks/sec", "events/sec",
			"bytes/event", "pool reuse"},
		Notes: []string{
			"workload: 64 lanes, one work event + one cancelled guard timeout per task",
			fmt.Sprintf("recorded pre-overhaul baseline: %.0f tasks/sec at 1M; current speedup %.1fx",
				X12BaselineTasksPerSec, r.Speedup()),
			fmt.Sprintf("serve leg: same 1M tasks as %d sessions / %d tenants through the multi-tenant scheduler: %.0f tasks/sec (%.2fx raw engine, %d windows)",
				r.Serve.Sessions, r.Serve.Tenants, r.Serve.TasksPerSec, r.Serve.RelativeToRaw, r.Serve.Windows),
			fmt.Sprintf("cluster leg: %d-node stencil, serial %.3fs vs goroutine-parallel %.3fs windows: %s",
				r.Cluster.Nodes, r.Cluster.SerialWallSec, r.Cluster.ParallelWallSec, verdict),
			fmt.Sprintf("  %d windows, %d fabric messages, virtual makespan %s s",
				r.Cluster.Windows, r.Cluster.Messages, f3(r.Cluster.VirtualTotal)),
		},
	}
	for _, row := range r.Engine {
		reuse := 0.0
		if row.Scheduled > 0 {
			reuse = float64(row.Reused) / float64(row.Scheduled) * 100
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Tasks),
			f3(row.WallSec),
			fmt.Sprintf("%.0f", row.TasksPerSec),
			fmt.Sprintf("%.0f", row.EventsPerSec),
			f2(row.BytesPerEvent),
			fmt.Sprintf("%.1f%%", reuse),
		})
	}
	return t
}

// X12EngineBenchRow is one sweep point in BENCH_engine.json.
type X12EngineBenchRow struct {
	Tasks         int64   `json:"tasks"`
	WallSec       float64 `json:"wall_s"`
	TasksPerSec   float64 `json:"tasks_per_sec"`
	EventsPerSec  float64 `json:"events_per_sec"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	Scheduled     int64   `json:"events_scheduled"`
	Cancelled     int64   `json:"events_cancelled"`
	Reused        int64   `json:"events_reused"`
}

// X12ClusterBench is the cluster leg in BENCH_engine.json.
type X12ClusterBench struct {
	Nodes           int     `json:"nodes"`
	SerialWallSec   float64 `json:"serial_wall_s"`
	ParallelWallSec float64 `json:"parallel_wall_s"`
	Identical       bool    `json:"byte_identical"`
	VirtualTotal    float64 `json:"virtual_makespan_s"`
	Messages        int64   `json:"fabric_messages"`
	Windows         int64   `json:"windows"`
}

// X12ServeBench is the serve leg in BENCH_engine.json.
type X12ServeBench struct {
	Sessions      int     `json:"sessions"`
	Tenants       int     `json:"tenants"`
	Tasks         int64   `json:"tasks"`
	WallSec       float64 `json:"wall_s"`
	TasksPerSec   float64 `json:"tasks_per_sec"`
	RelativeToRaw float64 `json:"relative_to_raw_engine"`
	Windows       int64   `json:"windows"`
}

// X12Bench is the JSON snapshot X12 writes (BENCH_engine.json).
type X12Bench struct {
	Scale             string              `json:"scale"`
	Engine            []X12EngineBenchRow `json:"engine"`
	BaselineTasksPerS float64             `json:"baseline_1m_tasks_per_sec"`
	SpeedupVsBaseline float64             `json:"speedup_1m_vs_baseline"`
	Serve             X12ServeBench       `json:"serve"`
	Cluster           X12ClusterBench     `json:"cluster"`
}

// Bench converts the result for JSON emission.
func (r *X12Result) Bench() X12Bench {
	b := X12Bench{
		Scale:             r.Scale.String(),
		BaselineTasksPerS: X12BaselineTasksPerSec,
		SpeedupVsBaseline: r.Speedup(),
		Serve: X12ServeBench{
			Sessions:      r.Serve.Sessions,
			Tenants:       r.Serve.Tenants,
			Tasks:         r.Serve.Tasks,
			WallSec:       r.Serve.WallSec,
			TasksPerSec:   r.Serve.TasksPerSec,
			RelativeToRaw: r.Serve.RelativeToRaw,
			Windows:       r.Serve.Windows,
		},
		Cluster: X12ClusterBench{
			Nodes:           r.Cluster.Nodes,
			SerialWallSec:   r.Cluster.SerialWallSec,
			ParallelWallSec: r.Cluster.ParallelWallSec,
			Identical:       r.Cluster.Identical,
			VirtualTotal:    r.Cluster.VirtualTotal,
			Messages:        r.Cluster.Messages,
			Windows:         r.Cluster.Windows,
		},
	}
	for _, row := range r.Engine {
		b.Engine = append(b.Engine, X12EngineBenchRow{
			Tasks:         row.Tasks,
			WallSec:       row.WallSec,
			TasksPerSec:   row.TasksPerSec,
			EventsPerSec:  row.EventsPerSec,
			BytesPerEvent: row.BytesPerEvent,
			Scheduled:     row.Scheduled,
			Cancelled:     row.Cancelled,
			Reused:        row.Reused,
		})
	}
	return b
}
