// Package trace implements task-level event tracing for the runtime:
// capture (a Recorder on the runtime's event stream, which the charm
// scheduler, the core manager and the adapt controller emit into), a
// versioned deterministic JSONL encoding,
// export to Chrome trace_event JSON plus a terminal summary, and a
// replay/what-if engine that reconstructs the captured workload and
// re-drives it through the real scheduler under different knobs.
//
// The encoding is deliberately boring: one JSON object per line, every
// event a plain Go struct (encoding/json emits struct fields in
// declaration order, so output never depends on map iteration), all
// timestamps virtual time, no wall clock anywhere. That makes
// encode -> decode -> encode byte-identical, which in turn makes replay
// fidelity a byte-comparison (DESIGN.md section 11).
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Version is the capture-format version written into the meta event.
// Decoders reject captures from a different major version.
const Version = 1

// Ev is the header embedded in every event: kind, global sequence
// number and virtual timestamp in seconds.
type Ev struct {
	K   string   `json:"k"`
	Seq int64    `json:"seq"`
	T   sim.Time `json:"t"`
}

func (e *Ev) header() *Ev { return e }

// Event is one captured runtime event. The concrete types below form
// the complete taxonomy; Kind returns the stable discriminator stored
// in the "k" field.
type Event interface {
	header() *Ev
	Kind() string
}

// Knobs is the JSON image of the retunable core.Options fields — enough
// to rebuild an equivalent Options for replay.
type Knobs struct {
	Mode            string `json:"mode"`
	HBMReserve      int64  `json:"hbm_reserve"`
	EvictLazily     bool   `json:"evict_lazily"`
	IOThreads       int    `json:"io_threads"`
	SharedWaitQueue bool   `json:"shared_wait_queue"`
	EvictPolicy     string `json:"evict_policy"`
	PrefetchDepth   int    `json:"prefetch_depth"`
	Metrics         bool   `json:"metrics"`
}

// KnobsOf snapshots the replay-relevant fields of an option set.
func KnobsOf(o core.Options) Knobs {
	pol := core.DeclOrder.Name()
	if o.EvictPolicy != nil {
		pol = o.EvictPolicy.Name()
	}
	return Knobs{
		Mode:            o.Mode.String(),
		HBMReserve:      o.HBMReserve,
		EvictLazily:     o.EvictLazily,
		IOThreads:       o.IOThreads,
		SharedWaitQueue: o.SharedWaitQueue,
		EvictPolicy:     pol,
		PrefetchDepth:   o.PrefetchDepth,
		Metrics:         o.Metrics,
	}
}

// parseMode inverts core.Mode.String.
func parseMode(s string) (core.Mode, error) {
	for _, m := range []core.Mode{core.DDROnly, core.Baseline, core.SingleIO, core.NoIO, core.MultiIO} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown mode %q", s)
}

// Options rebuilds a core.Options from the knob image.
func (k Knobs) Options() (core.Options, error) {
	mode, err := parseMode(k.Mode)
	if err != nil {
		return core.Options{}, err
	}
	o := core.Options{
		Mode:            mode,
		HBMReserve:      k.HBMReserve,
		EvictLazily:     k.EvictLazily,
		IOThreads:       k.IOThreads,
		SharedWaitQueue: k.SharedWaitQueue,
		PrefetchDepth:   k.PrefetchDepth,
		Metrics:         k.Metrics,
	}
	if mode.Moves() {
		pol, err := core.ParseEvictPolicy(k.EvictPolicy)
		if err != nil {
			return core.Options{}, err
		}
		o.EvictPolicy = pol
	}
	return o, nil
}

// Meta is the first event of every capture: everything needed to
// rebuild the machine and runtime for replay. Session and Tenant are
// set only on captures recorded by the multi-tenant service (hetmemd);
// both are omitted from single-workload captures, which therefore stay
// byte-identical to pre-service recorders.
type Meta struct {
	Ev
	Version int    `json:"version"`
	NumPEs  int    `json:"num_pes"`
	Seed    int64  `json:"seed"`
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	// Tiers is the memory chain the capture ran on, node names in
	// near-to-far order (e.g. ["MCDRAM","DDR4","NVM"]). Replay refuses
	// a capture whose recorded chain differs from the machine the spec
	// rebuilds — a tier-aware capture must not silently replay against
	// the wrong topology. Absent on captures recorded before tier
	// chains existed; those skip the check.
	Tiers  []string             `json:"tiers,omitempty"`
	Knobs  Knobs                `json:"knobs"`
	Params charm.Params         `json:"params"`
	Spec   topology.MachineSpec `json:"spec"`
}

func (*Meta) Kind() string { return "meta" }

// HandleDecl records a managed block declaration and its initial
// placement node (a core.BlockState string).
type HandleDecl struct {
	Ev
	Block string `json:"block"`
	Bytes int64  `json:"bytes"`
	Node  string `json:"node"`
}

func (*HandleDecl) Kind() string { return "handle" }

// Dep is one declared data dependence of a task.
type Dep struct {
	Block string `json:"block"`
	Bytes int64  `json:"bytes"`
	Mode  string `json:"mode"`
}

// Send records task creation: the recorder assigns the capture-unique
// task ID here, in send order.
type Send struct {
	Ev
	ID       int64  `json:"id"`
	Arr      string `json:"arr"`
	Idx      int    `json:"idx"`
	Entry    string `json:"entry"`
	PE       int    `json:"pe"`
	From     int    `json:"from"`
	Prefetch bool   `json:"prefetch"`
	Deps     []Dep  `json:"deps,omitempty"`
}

func (*Send) Kind() string { return "send" }

// Admit records the strategy's admission decision for an intercepted
// [prefetch] task: staged into a wait queue, or executed inline.
type Admit struct {
	Ev
	ID     int64 `json:"id"`
	PE     int   `json:"pe"`
	Bytes  int64 `json:"bytes"`
	Staged bool  `json:"staged"`
}

func (*Admit) Kind() string { return "admit" }

// RunStart marks entry-method execution beginning on a PE.
type RunStart struct {
	Ev
	ID int64 `json:"id"`
	PE int   `json:"pe"`
}

func (*RunStart) Kind() string { return "run-start" }

// RunEnd marks entry-method execution completing.
type RunEnd struct {
	Ev
	ID int64 `json:"id"`
	PE int   `json:"pe"`
}

func (*RunEnd) Kind() string { return "run-end" }

// Kernel records one RunKernel completion inside a task. T is the end
// time; Start is the exact begin time (recorded separately because
// T-Dur can differ from the true start by a ULP, which would break
// byte-identical replay).
type Kernel struct {
	Ev
	ID    int64    `json:"id"`
	PE    int      `json:"pe"`
	Flops float64  `json:"flops"`
	Scale float64  `json:"scale"`
	Start sim.Time `json:"start"`
	Dur   sim.Time `json:"dur"`
}

func (*Kernel) Kind() string { return "kernel" }

// FetchStart marks a block migration into HBM beginning on an IO lane.
type FetchStart struct {
	Ev
	Lane  int    `json:"lane"`
	Block string `json:"block"`
	Bytes int64  `json:"bytes"`
}

func (*FetchStart) Kind() string { return "fetch-start" }

// FetchEnd marks the migration completing. Src names the tier node the
// bytes actually came from (the bottom tier for first touches, the
// demotion target for refetches); Refetch marks blocks that had been
// resident before.
type FetchEnd struct {
	Ev
	Lane    int      `json:"lane"`
	Block   string   `json:"block"`
	Bytes   int64    `json:"bytes"`
	Dur     sim.Time `json:"dur"`
	Src     string   `json:"src"`
	Refetch bool     `json:"refetch"`
}

func (*FetchEnd) Kind() string { return "fetch-end" }

// Evict records a block migrating out of HBM (T is the end time; the
// eviction ran over [T-Dur, T]). Dst names the tier the victim landed
// on; it is omitted when it is the far node of a two-tier machine, so
// classic captures stay byte-identical to the pre-tier encoding.
type Evict struct {
	Ev
	Lane   int      `json:"lane"`
	Block  string   `json:"block"`
	Bytes  int64    `json:"bytes"`
	Dur    sim.Time `json:"dur"`
	Forced bool     `json:"forced"`
	Policy string   `json:"policy"`
	Dst    string   `json:"dst,omitempty"`
}

func (*Evict) Kind() string { return "evict" }

// Pressure records a staging attempt aborted for lack of HBM capacity,
// with the usage picture at the moment of the abort.
type Pressure struct {
	Ev
	PE       int    `json:"pe"`
	Task     string `json:"task"`
	Need     int64  `json:"need"`
	Used     int64  `json:"used"`
	Reserved int64  `json:"reserved"`
	Budget   int64  `json:"budget"`
}

func (*Pressure) Kind() string { return "pressure" }

// Retune records a successful online Retune with the new knob set.
type Retune struct {
	Ev
	Knobs Knobs `json:"knobs"`
}

func (*Retune) Kind() string { return "retune" }

// LaneAssign records one multi-tenant scheduler window's IO-lane
// verdict for the capturing session: Lanes of the machine's Total IO
// lanes went to this session's tenant while Active sessions contended.
// Only hetmemd's scheduler emits the kind — single-workload captures
// never carry it and stay byte-identical to pre-service recorders.
type LaneAssign struct {
	Ev
	Window int `json:"window"`
	Lanes  int `json:"lanes"`
	Total  int `json:"total"`
	Active int `json:"active"`
}

func (*LaneAssign) Kind() string { return "lanes" }

// Adapt records one adaptive-controller decision.
type Adapt struct {
	Ev
	Window int    `json:"window"`
	Action string `json:"action"`
}

func (*Adapt) Kind() string { return "adapt" }

// TaskDone records post-processing completion of a [prefetch] task.
type TaskDone struct {
	Ev
	ID int64 `json:"id"`
}

func (*TaskDone) Kind() string { return "done" }

// Stats is the capture footer: the manager's aggregate counters and the
// virtual makespan at the moment the recorder was finalised.
type Stats struct {
	Ev
	Makespan        sim.Time `json:"makespan"`
	Tasks           int64    `json:"tasks"`
	Fetches         int64    `json:"fetches"`
	Refetches       int64    `json:"refetches"`
	Evictions       int64    `json:"evictions"`
	ForcedEvictions int64    `json:"forced_evictions"`
	StageRetries    int64    `json:"stage_retries"`
	BytesFetched    int64    `json:"bytes_fetched"`
	BytesEvicted    int64    `json:"bytes_evicted"`
	TasksStaged     int64    `json:"tasks_staged"`
	TasksInline     int64    `json:"tasks_inline"`
}

func (*Stats) Kind() string { return "stats" }

// newEvent returns a fresh event of the given kind for decoding.
func newEvent(kind string) (Event, error) {
	switch kind {
	case "meta":
		return &Meta{}, nil
	case "handle":
		return &HandleDecl{}, nil
	case "send":
		return &Send{}, nil
	case "admit":
		return &Admit{}, nil
	case "run-start":
		return &RunStart{}, nil
	case "run-end":
		return &RunEnd{}, nil
	case "kernel":
		return &Kernel{}, nil
	case "fetch-start":
		return &FetchStart{}, nil
	case "fetch-end":
		return &FetchEnd{}, nil
	case "evict":
		return &Evict{}, nil
	case "pressure":
		return &Pressure{}, nil
	case "retune":
		return &Retune{}, nil
	case "lanes":
		return &LaneAssign{}, nil
	case "adapt":
		return &Adapt{}, nil
	case "done":
		return &TaskDone{}, nil
	case "stats":
		return &Stats{}, nil
	default:
		return nil, fmt.Errorf("trace: unknown event kind %q", kind)
	}
}

// Capture is a decoded (or freshly recorded) event stream.
type Capture struct {
	Events []Event
}

// Meta returns the capture's meta event, or nil if absent (truncated
// capture).
func (c *Capture) Meta() *Meta {
	for _, e := range c.Events {
		if m, ok := e.(*Meta); ok {
			return m
		}
	}
	return nil
}

// Stats returns the capture's footer, or nil if absent.
func (c *Capture) Stats() *Stats {
	for i := len(c.Events) - 1; i >= 0; i-- {
		if s, ok := c.Events[i].(*Stats); ok {
			return s
		}
	}
	return nil
}

// Encode writes the capture as JSONL. The output is a pure function of
// the events: struct-field order, shortest-round-trip floats, no maps,
// no wall clock. Hot event kinds go through the hand-rolled appenders
// in encode_fast.go (byte-identical to json.Marshal, pinned by test);
// rare kinds and escape-needing strings fall back to the reflective
// encoder.
func (c *Capture) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, e := range c.Events {
		var err error
		if line, err = appendLine(line[:0], e); err != nil {
			return fmt.Errorf("trace: encode %s event: %w", e.Kind(), err)
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// appendLine appends e's capture line, without the newline: the
// hand-written appender's bytes for the kinds and strings it covers,
// json.Marshal's for the rest (the same bytes either way). Encode and
// hmtrace diff's per-task lines both go through it, so they cannot
// drift apart.
func appendLine(b []byte, e Event) ([]byte, error) {
	if out, ok := appendEvent(b, e); ok {
		return out, nil
	}
	raw, err := json.Marshal(e)
	return append(b, raw...), err
}

// Bytes returns the JSONL encoding.
func (c *Capture) Bytes() []byte {
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		panic(err) // in-memory encode of valid events cannot fail
	}
	return buf.Bytes()
}

// WriteFile writes the JSONL encoding to path.
func (c *Capture) WriteFile(path string) error {
	return os.WriteFile(path, c.Bytes(), 0o644)
}

// Decode parses a JSONL capture. On a malformed or truncated line it
// returns every event successfully parsed before the failure alongside
// the error, so callers can recover the readable prefix of a damaged
// capture. A line in the encoder's own shape takes the reflection-free
// parser (decodeFast, decode_fast.go); any other line takes the
// two-pass decodeLine, which gives the same event, or the error text,
// for every line.
func Decode(r io.Reader) (*Capture, error) {
	c := &Capture{}
	d := newDecoder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e := d.decodeFast(line)
		if e == nil {
			var err error
			if e, err = decodeLine(line); err != nil {
				return c, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
		}
		if m, ok := e.(*Meta); ok && m.Version != Version {
			return c, fmt.Errorf("trace: line %d: capture version %d, decoder supports %d", lineNo, m.Version, Version)
		}
		c.Events = append(c.Events, e)
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("trace: line %d: %w", lineNo, err)
	}
	if len(c.Events) == 0 {
		return c, fmt.Errorf("trace: empty capture")
	}
	return c, nil
}

// decodeLine decodes one capture line in two passes: it probes the
// line's "k" field, then unmarshals the line into an event of that
// kind.
func decodeLine(line []byte) (Event, error) {
	var probe struct {
		K string `json:"k"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, err
	}
	e, err := newEvent(probe.K)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(line, e); err != nil {
		return nil, fmt.Errorf("decode %s event: %w", probe.K, err)
	}
	return e, nil
}

// DecodeFile parses the capture at path, with the same partial-read
// recovery as Decode.
func DecodeFile(path string) (*Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
