package serve

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
)

// State is a session's lifecycle stage.
type State int

const (
	// Queued sessions passed validation but wait for budget.
	Queued State = iota
	// Running sessions own a budget grant and advance each window.
	Running
	// Done sessions completed their workload.
	Done
	// Failed sessions deadlocked or tripped an audit invariant.
	Failed
	// Canceled sessions were killed by the client or by drain.
	Canceled
)

// String names the state for JSON and tables.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Finished reports whether the state is terminal.
func (s State) Finished() bool { return s == Done || s == Failed || s == Canceled }

// WorkloadSpec is one submission: a named kernel plus the knobs the
// single-workload drivers expose as flags. Zero value fields take
// machine-scaled defaults (see normalize).
type WorkloadSpec struct {
	// Tenant names the submitting tenant (required).
	Tenant string `json:"tenant"`
	// Kernel picks the workload: "stencil", "matmul" or "shift"
	// (plus any kernel registered via RegisterKernel).
	Kernel string `json:"kernel"`

	// Bytes is the total working set. Default: 2x the session
	// footprint (an out-of-core run).
	Bytes int64 `json:"bytes,omitempty"`
	// Reduced is the active working set (stencil reduced set, shift
	// hot set). Default: half the footprint.
	Reduced int64 `json:"reduced,omitempty"`
	// Iterations is the outer iteration count. Default 2 (shift: one
	// pre- and one post-shift iteration). Matmul does not read it.
	Iterations int `json:"iterations,omitempty"`
	// Sweeps is the temporal-tiling depth. Default 20. Matmul does not
	// read it.
	Sweeps int `json:"sweeps,omitempty"`

	// Footprint is the HBM grant the session asks for. Default:
	// Reduced plus half, i.e. the active set with staging headroom.
	Footprint int64 `json:"footprint,omitempty"`

	// Strategy is the data-movement mode: "single", "noio" or
	// "multi" (default "multi").
	Strategy string `json:"strategy,omitempty"`
	// IOThreads sets the IO thread count (single strategy only).
	IOThreads int `json:"io_threads,omitempty"`
	// PrefetchDepth bounds in-flight prefetches (multi strategy).
	PrefetchDepth int `json:"prefetch_depth,omitempty"`
	// EvictPolicy picks the eviction victim policy: "decl", "lru" or
	// "lookahead".
	EvictPolicy string `json:"evict_policy,omitempty"`
	// EvictLazily defers eviction until capacity pressure.
	EvictLazily bool `json:"evict_lazily,omitempty"`
	// Adapt attaches the online adaptive controller.
	Adapt bool `json:"adapt,omitempty"`
	// Trace records a per-session JSONL capture, downloadable from
	// the trace endpoint.
	Trace bool `json:"trace,omitempty"`
	// Seed overrides the session engine seed (default BaseSeed+id).
	Seed int64 `json:"seed,omitempty"`
}

// stencilConfig is the "stencil" kernel's configuration for a spec.
func stencilConfig(spec WorkloadSpec, numPEs int) kernels.Workload {
	cfg := kernels.DefaultStencilConfig()
	cfg.NumPEs = numPEs
	cfg.TotalBytes = spec.Bytes
	cfg.ReducedBytes = spec.Reduced
	cfg.Iterations = spec.Iterations
	cfg.Sweeps = spec.Sweeps
	return cfg
}

// shiftConfig is the "shift" kernel's configuration for a spec: the hot
// set is Reduced, the shift widens it to Bytes, over 4 chares per PE.
func shiftConfig(spec WorkloadSpec, numPEs int) kernels.Workload {
	chares := 4 * numPEs
	pre := max(spec.Iterations/2, 1)
	return kernels.ShiftConfig{
		HotBytes:  roundUp(spec.Reduced, int64(chares)),
		ColdBytes: roundUp(spec.Bytes-spec.Reduced, int64(chares)),
		NumChares: chares,
		PreIters:  pre,
		PostIters: max(spec.Iterations-pre, 1),
		Sweeps:    spec.Sweeps,
		NumPEs:    numPEs,
	}
}

// matmulConfig is the "matmul" kernel's configuration for a spec: the
// block grid is the one GridFor picks for the session's grant.
func matmulConfig(spec WorkloadSpec, numPEs int) kernels.Workload {
	cfg := kernels.DefaultMatMulConfig()
	cfg.NumPEs = numPEs
	cfg.TotalBytes = spec.Bytes
	cfg.Grid = kernels.GridFor(spec.Bytes, spec.Footprint, numPEs)
	return cfg
}

// kernel is one registry entry: the configuration a submission builds,
// which validates and sizes the session, and whether that configuration
// reads the submission's Iterations and Sweeps. A submission may not set
// fields its kernel does not read.
type kernel struct {
	config    func(spec WorkloadSpec, numPEs int) kernels.Workload
	iterative bool
}

// builtinKernels returns the default kernel registry.
func builtinKernels() map[string]kernel {
	return map[string]kernel{
		"stencil": {config: stencilConfig, iterative: true},
		"shift":   {config: shiftConfig, iterative: true},
		"matmul":  {config: matmulConfig},
	}
}

// roundUp rounds n up to a positive multiple of q.
func roundUp(n, q int64) int64 {
	if n < q {
		return q
	}
	if r := n % q; r != 0 {
		n += q - r
	}
	return n
}

// Session is one submission's job record. Fields are owned by the
// scheduler; the HTTP layer reads them under the server mutex.
type Session struct {
	id     int
	ID     string
	Tenant string
	Spec   WorkloadSpec

	State State
	// Err describes why the session Failed (or was Canceled).
	Err string

	// Arrival, Started and Finished are global virtual times;
	// Makespan() is Finished-Arrival and includes queue wait.
	Arrival  sim.Time
	Started  sim.Time
	Finished sim.Time

	// Footprint is the HBM grant (bytes).
	Footprint int64

	// run is the session's simulation, described by value at submit:
	// its machine is cut to the grant, and its app the configuration
	// that sized and validated it.
	run runner.Run
	ten *tenant

	// base is the global virtual time at which the session's private
	// engine (whose clock starts at 0) was started.
	base sim.Time
	// live is the running session's build: environment, app and
	// controller. The terminal transition drops it, keeping only the
	// values below, so a finished session holds nothing of its
	// simulation.
	live *runner.Built
	// rec records a traced session; once finished it holds the
	// capture alone.
	rec *trace.Recorder

	// released guards exactly-once budget release.
	released bool

	// metrics is the manager's final counter snapshot, captured at
	// the terminal transition (the engine is closed afterwards).
	metrics   audit.Snapshot
	hasMetric bool
	// verdict is where the session's controller ended, captured at
	// the terminal transition; nil without a controller.
	verdict *adapt.Verdict
}

// Makespan returns arrival-to-finish in virtual seconds (0 while
// unfinished).
func (s *Session) Makespan() sim.Time {
	if !s.State.Finished() {
		return 0
	}
	return s.Finished - s.Arrival
}

// MetricsSnapshot returns the session's audit/metrics counters: the
// live manager's while running, the preserved final snapshot once
// finished.
func (s *Session) MetricsSnapshot() (audit.Snapshot, bool) {
	if s.hasMetric {
		return s.metrics, true
	}
	if s.live == nil {
		return audit.Snapshot{}, false
	}
	return s.live.MG.MetricsSnapshot()
}

// TraceCapture returns the session's recorded capture, or nil if the
// session was not submitted with Trace.
func (s *Session) TraceCapture() *trace.Capture {
	if s.rec == nil {
		return nil
	}
	return s.rec.Capture()
}
