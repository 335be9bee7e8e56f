// Package hetmem is a memory-heterogeneity-aware runtime system for
// bandwidth-sensitive HPC applications, reproducing Chandrasekar, Ni
// and Kale, "A Memory Heterogeneity-Aware Runtime System for
// Bandwidth-Sensitive HPC Applications" (IPDPSW 2017).
//
// The library bundles:
//
//   - a deterministic discrete-event simulation of a many-core node
//     with heterogeneous memory (MCDRAM/HBM + DDR4, the KNL the paper
//     evaluates on), including max-min fair bandwidth sharing, a
//     libnuma-like allocation API and machine presets;
//   - a Charm++-like over-decomposed task runtime (chare arrays,
//     [prefetch] entry methods with declared data dependences, per-PE
//     converse schedulers, reductions, nodegroups);
//   - the paper's contribution: an out-of-core data-block manager with
//     INHBM/INDDR block states, reference counts, per-PE wait/run
//     queues, and three prefetch/eviction strategies (single IO
//     thread, synchronous worker-driven, one async IO thread per PE);
//   - the paper's two evaluation applications (Stencil3D and blocked
//     matrix multiplication) and drivers that regenerate every figure
//     of the evaluation (Figs. 1, 2, 5, 6, 7, 8, 9) plus extensions.
//
// # Quick start
//
//	eng := hetmem.NewEngine(1)
//	mach := hetmem.KNL7250().MustBuild(eng)
//	rt := hetmem.NewRuntime(mach, 64, hetmem.DefaultParams())
//	mgr := hetmem.NewManager(rt, hetmem.DefaultOptions(hetmem.MultiIO))
//	// declare blocks with mgr.NewHandle, register [prefetch] entries
//	// with Deps, send messages, then eng.RunAll().
//
// See examples/ for complete programs and internal/exp for the
// experiment harness.
package hetmem

import (
	"io"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/numa"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/serve"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
	"github.com/hetmem/hetmem/internal/trace"
	"github.com/hetmem/hetmem/internal/tune"
)

// --- simulation engine ---

type (
	// Engine is the deterministic discrete-event simulation engine.
	Engine = sim.Engine
	// Proc is a simulation process (virtual-time coroutine).
	Proc = sim.Proc
	// Time is virtual time in seconds.
	Time = sim.Time
)

// NewEngine returns an engine with the given deterministic seed.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// --- machine model ---

type (
	// MachineSpec describes a many-core node with heterogeneous
	// memory.
	MachineSpec = topology.MachineSpec
	// Machine is an instantiated MachineSpec.
	Machine = topology.Machine
	// MemoryMode is the KNL MCDRAM configuration (flat/cache/hybrid).
	MemoryMode = topology.MemoryMode
	// ClusterMode is the KNL mesh affinity mode.
	ClusterMode = topology.ClusterMode
	// MemNode is one memory node (capacity + bandwidth).
	MemNode = memsim.Node
	// NodeKind classifies a memory node (HBM, DDR, NVM, Remote).
	NodeKind = memsim.NodeKind
	// TierSpec describes one extra memory tier appended below DDR in a
	// MachineSpec's chain.
	TierSpec = topology.TierSpec
	// Allocator is the libnuma-like allocation API.
	Allocator = numa.Allocator
	// Buffer is an allocated region.
	Buffer = numa.Buffer
)

// Memory and cluster modes.
const (
	Flat     = topology.Flat
	CacheMod = topology.Cache
	Hybrid   = topology.Hybrid

	AllToAll = topology.AllToAll
	Quadrant = topology.Quadrant
	SNC4     = topology.SNC4
)

// Node ids in the paper's flat-mode convention.
const (
	DDRNodeID = topology.DDRNodeID
	HBMNodeID = topology.HBMNodeID
)

// Memory node kinds, ordered near to far along the tier chain.
const (
	KindHBM    = memsim.HBM
	KindDDR    = memsim.DDR
	KindNVM    = memsim.NVM
	KindRemote = memsim.Remote
)

// GB is one gibibyte in bytes.
const GB = topology.GB

// KNL7250 returns the machine used in the paper's evaluation: an Intel
// Xeon Phi Knights Landing node in Flat / All-to-All mode.
func KNL7250() MachineSpec { return topology.KNL7250() }

// TieredKNL returns the KNL preset extended to an n-tier memory chain
// (2 = the paper's machine, 3 adds NVM, 4 adds a remote/CXL pool).
func TieredKNL(depth int) (MachineSpec, error) { return topology.TieredKNL(depth) }

// --- Charm-like runtime ---

type (
	// Chare is an application object; any type can be a chare.
	Chare = charm.Chare
	// Runtime is the node-level task runtime.
	Runtime = charm.Runtime
	// Params are runtime cost knobs.
	Params = charm.Params
	// ChareArray is an over-decomposed chare array.
	ChareArray = charm.Array
	// Element is one chare of an array.
	Element = charm.Element
	// Entry describes an entry method ([prefetch] attribute, declared
	// dependences).
	Entry = charm.Entry
	// Message is an entry-method payload.
	Message = charm.Message
	// PE is a processing element.
	PE = charm.PE
	// Reduction is a counting barrier with a completion callback.
	Reduction = charm.Reduction
	// DataDep pairs a data handle with its declared access mode.
	DataDep = charm.DataDep
	// AccessMode is readonly / readwrite / writeonly.
	AccessMode = charm.AccessMode
	// Sink observes the runtime's event stream; attach one with
	// Runtime.Attach before the run starts.
	Sink = charm.Sink
	// Event is one event of the runtime's stream.
	Event = charm.Event
	// Tracer records per-PE activity (the Projections analogue); it is
	// a Sink.
	Tracer = projections.Tracer
)

// Access modes, as in the .ci dependence annotations.
const (
	ReadOnly  = charm.ReadOnly
	ReadWrite = charm.ReadWrite
	WriteOnly = charm.WriteOnly
)

// NewRuntime builds a runtime with numPEs workers on machine m.
func NewRuntime(m *Machine, numPEs int, params Params) *Runtime {
	return charm.NewRuntime(m, numPEs, params)
}

// DefaultParams returns representative scheduler cost knobs.
func DefaultParams() Params { return charm.DefaultParams() }

// NewTracer returns a Projections-style activity tracer; attach it to
// a runtime with Runtime.Attach.
func NewTracer(e *Engine, lanes int) *Tracer { return projections.NewTracer(e, lanes) }

// --- OOC manager (the paper's contribution) ---

type (
	// Manager is the memory-heterogeneity-aware prefetch/evict layer.
	Manager = core.Manager
	// Options configure a Manager.
	Options = core.Options
	// Mode selects the placement/movement configuration.
	Mode = core.Mode
	// Handle is a managed data block (the paper's CkIOHandle).
	Handle = core.Handle
	// BlockState is INDDR/INHBM plus the transitional states.
	BlockState = core.BlockState
	// KernelSpec describes a bandwidth-sensitive kernel's demand.
	KernelSpec = core.KernelSpec
	// EvictPolicy orders eviction victims under capacity pressure.
	EvictPolicy = core.EvictPolicy
)

// Eviction victim-selection policies for Options.EvictPolicy.
var (
	// EvictDeclOrder evicts dead blocks in declaration order (default).
	EvictDeclOrder = core.DeclOrder
	// EvictLRU evicts the block with the oldest completed use.
	EvictLRU = core.LRU
	// EvictLookahead evicts the block whose next declared use is
	// farthest away, consulting the wait queues.
	EvictLookahead = core.Lookahead
)

// ParseEvictPolicy resolves a policy name ("decl", "lru", "lookahead").
func ParseEvictPolicy(name string) (EvictPolicy, error) { return core.ParseEvictPolicy(name) }

// EvictPolicies lists the built-in victim policies.
func EvictPolicies() []EvictPolicy { return core.EvictPolicies() }

// Placement/movement modes, matching the evaluation's bars.
const (
	DDROnly  = core.DDROnly
	Baseline = core.Baseline
	SingleIO = core.SingleIO
	NoIO     = core.NoIO
	MultiIO  = core.MultiIO
)

// Block states.
const (
	InDDR = core.InDDR
	InHBM = core.InHBM
)

// NewManager builds the OOC manager and installs it as the runtime's
// interceptor when the mode moves data.
func NewManager(rt *Runtime, opts Options) *Manager { return core.NewManager(rt, opts) }

// DefaultOptions returns the paper-faithful configuration for a mode.
func DefaultOptions(mode Mode) Options { return core.DefaultOptions(mode) }

// --- online adaptive controller ---

type (
	// AdaptController tunes a Manager's strategy knobs online from
	// runtime feedback (wait shares, HBM pressure, retry counters).
	AdaptController = adapt.Controller
	// AdaptConfig parameterises the controller's policies.
	AdaptConfig = adapt.Config
	// AdaptFeedback is one sampled feedback window.
	AdaptFeedback = adapt.Feedback
	// AdaptDecision records one controller action for tracing.
	AdaptDecision = adapt.Decision
)

// NewAdaptController builds a controller for mg; call Attach to start
// observing and wire Barrier into the app's iteration hook. The
// manager must run a movement mode with Options.Metrics.
func NewAdaptController(mg *Manager, cfg AdaptConfig) (*AdaptController, error) {
	return adapt.New(mg, cfg)
}

// DefaultAdaptConfig returns the controller defaults (also used for
// any zero fields in a custom AdaptConfig).
func DefaultAdaptConfig() AdaptConfig { return adapt.DefaultConfig() }

// --- task-level tracing, capture and replay ---

type (
	// TraceRecorder captures the runtime's event stream at zero virtual
	// cost; attach one before the run starts.
	TraceRecorder = trace.Recorder
	// TraceCapture is a recorded (or decoded) event stream with a
	// versioned deterministic JSONL encoding.
	TraceCapture = trace.Capture
	// TraceEvent is one captured runtime event.
	TraceEvent = trace.Event
	// TraceKnobs is the replayable image of a Manager's option set.
	TraceKnobs = trace.Knobs
	// TraceSummary is the terminal digest of a capture (occupancy,
	// overlap, exposed staging).
	TraceSummary = trace.Summary
	// TraceWorkload is a capture reconstructed for replay.
	TraceWorkload = trace.Workload
	// TraceReplayConfig parameterises a replay (nil Knobs = faithful).
	TraceReplayConfig = trace.ReplayConfig
	// TraceReplayResult is a finished replay with its own capture.
	TraceReplayResult = trace.ReplayResult
	// TraceOutcome condenses a capture for what-if comparison.
	TraceOutcome = trace.Outcome
)

// NewTraceRecorder builds a recorder for mg; call Attach before the
// run, Capture after it.
func NewTraceRecorder(mg *Manager) *TraceRecorder { return trace.NewRecorder(mg) }

// DecodeTrace parses a JSONL capture, recovering the readable prefix
// of damaged files alongside the error.
func DecodeTrace(r io.Reader) (*TraceCapture, error) { return trace.Decode(r) }

// DecodeTraceFile parses the capture at path.
func DecodeTraceFile(path string) (*TraceCapture, error) { return trace.DecodeFile(path) }

// SummarizeTrace digests a capture for the terminal.
func SummarizeTrace(c *TraceCapture) *TraceSummary { return trace.Summarize(c) }

// ExportChromeTrace converts a capture to Chrome trace_event JSON.
func ExportChromeTrace(c *TraceCapture, w io.Writer) error { return trace.ExportChrome(c, w) }

// ReconstructTrace extracts the replayable workload from a capture.
func ReconstructTrace(c *TraceCapture) (*TraceWorkload, error) { return trace.Reconstruct(c) }

// --- offline autotuner ---

type (
	// TuneConfig parameterises an offline tune run (search space,
	// early-abandon toggle).
	TuneConfig = tune.Config
	// TuneSpace is the searched knob space.
	TuneSpace = tune.Space
	// TuneEvaluator is the memoizing replay-driven makespan oracle a
	// search (or a what-if loop) judges knob sets with.
	TuneEvaluator = tune.Evaluator
	// RecommendedConfig is the versioned tune verdict artifact.
	RecommendedConfig = tune.RecommendedConfig
)

// Tune searches the knob space over a capture by replaying it through
// the real scheduler and returns the recommended configuration. Feed
// the verdict's Options() to AdaptConfig.Warm for a warm start.
func Tune(c *TraceCapture, cfg TuneConfig) (*RecommendedConfig, error) { return tune.Tune(c, cfg) }

// NewTuneEvaluator reconstructs a capture into a reusable evaluator.
func NewTuneEvaluator(c *TraceCapture) (*TuneEvaluator, error) { return tune.NewEvaluator(c) }

// LoadRecommendedConfig reads and version-checks a tune artifact.
func LoadRecommendedConfig(path string) (*RecommendedConfig, error) { return tune.Load(path) }

// --- evaluation applications ---

type (
	// StencilConfig sizes a Stencil3D benchmark run.
	StencilConfig = kernels.StencilConfig
	// StencilApp is an instantiated Stencil3D benchmark.
	StencilApp = kernels.StencilApp
	// MatMulConfig sizes a blocked matrix multiplication.
	MatMulConfig = kernels.MatMulConfig
	// MatMulApp is an instantiated MatMul benchmark.
	MatMulApp = kernels.MatMulApp
	// Env bundles engine + machine + runtime + manager for one run.
	Env = kernels.Env
	// EnvConfig parameterises NewEnv.
	EnvConfig = kernels.EnvConfig
)

// NewEnv builds a ready simulation environment.
func NewEnv(cfg EnvConfig) *Env { return kernels.NewEnv(cfg) }

// DefaultStencilConfig returns the paper's Stencil3D setup.
func DefaultStencilConfig() StencilConfig { return kernels.DefaultStencilConfig() }

// NewStencil builds the Stencil3D application on a manager.
func NewStencil(mg *Manager, cfg StencilConfig) (*StencilApp, error) {
	return kernels.NewStencil(mg, cfg)
}

// DefaultMatMulConfig returns the paper's MatMul setup.
func DefaultMatMulConfig() MatMulConfig { return kernels.DefaultMatMulConfig() }

// NewMatMul builds the MatMul application on a manager.
func NewMatMul(mg *Manager, cfg MatMulConfig) (*MatMulApp, error) {
	return kernels.NewMatMul(mg, cfg)
}

// --- multi-tenant service (hetmemd) ---

type (
	// ServeConfig parameterises the multi-tenant session scheduler: the
	// shared machine, per-tenant HBM budgets and the IO lane policy.
	ServeConfig = serve.Config
	// ServeTenantConfig pre-registers a tenant with its HBM budget and
	// fair-share weight.
	ServeTenantConfig = serve.TenantConfig
	// ServeWorkloadSpec is one submitted workload: kernel, sizes and
	// per-session runtime knobs.
	ServeWorkloadSpec = serve.WorkloadSpec
	// ServeScheduler is the deterministic multi-session core: admission
	// control, budget enforcement and weighted-fair lane sharing.
	ServeScheduler = serve.Scheduler
	// ServeServer wraps a Scheduler with the HTTP/JSON API and a
	// virtual-time drive loop.
	ServeServer = serve.Server
	// ServeSession is one workload's lifecycle record.
	ServeSession = serve.Session
	// ServeStats is the aggregate + per-tenant service snapshot.
	ServeStats = serve.Stats
)

// NewServeScheduler builds the multi-session scheduler.
func NewServeScheduler(cfg ServeConfig) (*ServeScheduler, error) { return serve.NewScheduler(cfg) }

// NewServeServer builds the HTTP service over a fresh scheduler; serve
// its Handler() and run Loop() in a goroutine.
func NewServeServer(cfg ServeConfig) (*ServeServer, error) { return serve.NewServer(cfg) }
