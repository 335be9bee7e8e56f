// Package tune implements the trace-driven offline autotuner: given a
// capture (the JSONL trace of a real run), it searches the retunable
// knob space — movement strategy × IOThreads × PrefetchDepth ×
// eviction victim policy × lazy eviction — by replaying the captured
// workload through the real scheduler, and emits a versioned
// RecommendedConfig artifact naming the winner.
//
// The search is a coarse grid pass followed by hill-climb refinement.
// The grid walks every strategy's knob ladder under each victim policy
// and both eviction disciplines — the policy × laziness cross matters,
// because under eager eviction the victim policies often tie exactly
// (the block evicted next is the block just released either way) and a
// grid that fixed one discipline would hand the tie to visit order and
// strand the climb at a local optimum one coordinated move away from
// the winner. The climb then refines the best grid point one neighbour
// at a time — ladder rung up/down, victim policy switch, lazy toggle —
// accepting strict improvements until none remains.
// Every replay after the first runs with an early-abandon bound at the
// incumbent's makespan: virtual time only moves forward, so a replay
// still holding pending events at the bound provably cannot win and is
// cut off mid-flight (runner.ReplayConfig.AbandonAbove). Abandonment is
// sound — a discarded candidate's makespan is >= the incumbent's, so
// the full-replay winner is never eliminated — and the property test in
// tune_test.go checks exactly that against a no-abandon oracle.
//
// Everything is deterministic: the space is walked in declaration
// order, replays run in virtual time, and the artifact is a pure
// function of the capture bytes — two tune runs over the same capture
// are byte-identical, which `hmtrace tune` run twice demonstrates.
//
// The online side consumes the artifact as a warm start:
// adapt.Config.Warm opens the controller directly in the recommended
// configuration (skipping its probe phase), and hetmemd seeds each
// tenant's next adaptive session with the last settled verdict —
// DESIGN.md section 16 describes the full handshake.
package tune

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/trace"
)

// ArtifactVersion is the RecommendedConfig format version; Load rejects
// artifacts from a different version.
const ArtifactVersion = 1

// ArtifactName is the conventional file name for the artifact inside a
// capture directory — `hmtrace summary <dir>` looks for it there to
// print tune provenance next to the captures.
const ArtifactName = "tune.json"

// Space is the searched knob space. Zero-value fields fall back to
// DefaultSpace's. IOThreads applies to the Single-IO strategy's ladder,
// PrefetchDepths to Multi-IO's (0 = unlimited); the No-IO strategy has
// no ladder knob.
type Space struct {
	Modes          []string `json:"modes"`
	IOThreads      []int    `json:"io_threads"`
	PrefetchDepths []int    `json:"prefetch_depths"`
	EvictPolicies  []string `json:"evict_policies"`
	Lazy           []bool   `json:"lazy"`
}

// DefaultSpace returns the full search space: the three movement
// strategies, power-of-two ladders matching the online controller's,
// all victim policies, both eviction disciplines.
func DefaultSpace() Space {
	var policies []string
	for _, p := range core.EvictPolicies() {
		policies = append(policies, p.Name())
	}
	return Space{
		Modes:          []string{core.SingleIO.String(), core.NoIO.String(), core.MultiIO.String()},
		IOThreads:      []int{1, 2, 4, 8},
		PrefetchDepths: []int{1, 2, 4, 8, 0},
		EvictPolicies:  policies,
		Lazy:           []bool{false, true},
	}
}

// fill replaces zero-value fields with DefaultSpace's.
func (s Space) fill() Space {
	def := DefaultSpace()
	if len(s.Modes) == 0 {
		s.Modes = def.Modes
	}
	if len(s.IOThreads) == 0 {
		s.IOThreads = def.IOThreads
	}
	if len(s.PrefetchDepths) == 0 {
		s.PrefetchDepths = def.PrefetchDepths
	}
	if len(s.EvictPolicies) == 0 {
		s.EvictPolicies = def.EvictPolicies
	}
	if len(s.Lazy) == 0 {
		s.Lazy = def.Lazy
	}
	return s
}

// ladder returns the knob ladder a mode climbs, or nil for modes
// without one.
func (s Space) ladder(mode string) []int {
	switch mode {
	case core.SingleIO.String():
		return s.IOThreads
	case core.MultiIO.String():
		return s.PrefetchDepths
	}
	return nil
}

// Config parameterises a tune run.
type Config struct {
	// Space restricts the search; zero-value fields take DefaultSpace's.
	Space Space
	// NoAbandon disables early abandon, replaying every candidate to
	// completion. The search visits the same candidates and returns the
	// same winner (abandonment only ever discards provably-worse
	// candidates); the property test uses this mode as its oracle.
	NoAbandon bool
}

// Step is one search-trace entry: a candidate judged, in visit order.
type Step struct {
	Phase     string      `json:"phase"` // "grid" or "climb"
	Knobs     trace.Knobs `json:"knobs"`
	MakespanS float64     `json:"makespan_s"`
	Abandoned bool        `json:"abandoned,omitempty"`
	Memoized  bool        `json:"memoized,omitempty"`
	Best      bool        `json:"best,omitempty"` // became the incumbent
}

// RecommendedConfig is the tune verdict artifact: the winning knob set,
// its predicted makespan, the capture it was computed from (by digest),
// and the full search trace. It is versioned JSON, deterministic down
// to the byte for a given capture.
type RecommendedConfig struct {
	Version            int         `json:"version"`
	CaptureDigest      string      `json:"capture_digest"`
	RecordedKnobs      trace.Knobs `json:"recorded_knobs"`
	RecordedMakespanS  float64     `json:"recorded_makespan_s,omitempty"`
	Knobs              trace.Knobs `json:"knobs"`
	PredictedMakespanS float64     `json:"predicted_makespan_s"`
	Replays            int         `json:"replays"`
	Abandoned          int         `json:"abandoned"`
	MemoHits           int         `json:"memo_hits"`
	Trace              []Step      `json:"search_trace"`
}

// Options rebuilds the recommended core option set — what a warm start
// feeds to adapt.Config.Warm.
func (rc *RecommendedConfig) Options() (core.Options, error) {
	return rc.Knobs.Options()
}

// Bytes returns the canonical artifact encoding (indented JSON plus
// trailing newline) — the byte-identity surface for determinism checks.
func (rc *RecommendedConfig) Bytes() []byte {
	b, err := json.MarshalIndent(rc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("tune: marshal artifact: %v", err))
	}
	return append(b, '\n')
}

// Save writes the artifact to path.
func (rc *RecommendedConfig) Save(path string) error {
	return os.WriteFile(path, rc.Bytes(), 0o644)
}

// Load reads and version-checks an artifact.
func Load(path string) (*RecommendedConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rc := &RecommendedConfig{}
	if err := json.Unmarshal(b, rc); err != nil {
		return nil, fmt.Errorf("tune: %s: %w", path, err)
	}
	if rc.Version != ArtifactVersion {
		return nil, fmt.Errorf("tune: %s: artifact version %d, this build supports %d", path, rc.Version, ArtifactVersion)
	}
	return rc, nil
}

// Tune searches the space over the capture and returns the verdict.
func Tune(c *trace.Capture, cfg Config) (*RecommendedConfig, error) {
	ev, err := NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	return TuneWith(ev, cfg)
}

// searcher carries the incumbent through grid and climb.
type searcher struct {
	ev    *Evaluator
	cfg   Config
	space Space
	steps []Step
	best  Eval
	found bool
}

// bound returns the early-abandon bound for the next candidate: the
// incumbent's makespan, or 0 (replay fully) before one exists or when
// abandonment is disabled.
func (s *searcher) bound() float64 {
	if s.cfg.NoAbandon || !s.found {
		return 0
	}
	return s.best.Makespan
}

// judge evaluates one candidate and updates the incumbent. A candidate
// wins only by strict improvement: abandoned replays proved makespan >=
// incumbent, completed ones compare directly (the replay bound already
// cuts at the incumbent, so a completed run under a bound is strictly
// better by construction).
func (s *searcher) judge(phase string, k trace.Knobs) (bool, error) {
	v, cached, err := s.ev.Eval(k, s.bound())
	if err != nil {
		return false, err
	}
	st := Step{Phase: phase, Knobs: k, MakespanS: v.Makespan, Abandoned: v.Abandoned, Memoized: cached}
	improved := !v.Abandoned && (!s.found || v.Makespan < s.best.Makespan)
	if improved {
		s.best = v
		s.found = true
		st.Best = true
	}
	s.steps = append(s.steps, st)
	return improved, nil
}

// candidate derives a searchable knob set from the capture's recorded
// knobs: searched fields overridden, everything else (HBM reserve,
// wait-queue topology, metrics) kept as recorded. Ladder knobs that the
// mode does not read are zeroed so equivalent candidates memoize to the
// same key.
func (s *searcher) candidate(mode string, rung int, policy string, lazy bool) trace.Knobs {
	k := s.ev.Base()
	k.Mode = mode
	k.IOThreads = 0
	k.PrefetchDepth = 0
	switch mode {
	case core.SingleIO.String():
		k.IOThreads = rung
	case core.MultiIO.String():
		k.PrefetchDepth = rung
	}
	k.EvictPolicy = policy
	k.EvictLazily = lazy
	return k
}

// TuneWith runs the search over an existing evaluator (so a caller can
// share the evaluator — and its memo — with other queries).
func TuneWith(ev *Evaluator, cfg Config) (*RecommendedConfig, error) {
	s := &searcher{ev: ev, cfg: cfg, space: cfg.Space.fill()}

	// Grid pass: every strategy's full ladder under each victim policy
	// and eviction discipline. Early abandon keeps the cross cheap —
	// once an incumbent exists, losing candidates stop at its makespan.
	for _, mode := range s.space.Modes {
		ladder := s.space.ladder(mode)
		if ladder == nil {
			ladder = []int{0}
		}
		for _, rung := range ladder {
			for _, pol := range s.space.EvictPolicies {
				for _, lazy := range s.space.Lazy {
					if _, err := s.judge("grid", s.candidate(mode, rung, pol, lazy)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if !s.found {
		return nil, fmt.Errorf("tune: no candidate completed a replay (empty search space?)")
	}

	// Hill-climb refinement from the grid winner: ladder rung up/down,
	// each other victim policy, lazy toggle — first improvement restarts
	// the scan, no improvement ends the search. The strategy is fixed
	// (the grid already ranked all of them on their full ladders).
	for improved := true; improved; {
		improved = false
		for _, n := range s.neighbours(s.best.Knobs) {
			won, err := s.judge("climb", n)
			if err != nil {
				return nil, err
			}
			if won {
				improved = true
				break
			}
		}
	}

	replays, abandons, hits := ev.Stats()
	rc := &RecommendedConfig{
		Version:            ArtifactVersion,
		CaptureDigest:      ev.Digest(),
		RecordedKnobs:      ev.Base(),
		RecordedMakespanS:  float64(ev.RecordedMakespan()),
		Knobs:              s.best.Knobs,
		PredictedMakespanS: float64(s.best.Makespan),
		Replays:            replays,
		Abandoned:          abandons,
		MemoHits:           hits,
		Trace:              s.steps,
	}
	return rc, nil
}

// neighbours enumerates the climb moves from k in deterministic order:
// ladder rung down, rung up, each other victim policy, lazy toggle.
func (s *searcher) neighbours(k trace.Knobs) []trace.Knobs {
	var out []trace.Knobs
	ladder := s.space.ladder(k.Mode)
	if ladder != nil {
		rung := k.IOThreads
		if k.Mode == core.MultiIO.String() {
			rung = k.PrefetchDepth
		}
		at := -1
		for i, v := range ladder {
			if v == rung {
				at = i
				break
			}
		}
		if at > 0 {
			out = append(out, s.candidate(k.Mode, ladder[at-1], k.EvictPolicy, k.EvictLazily))
		}
		if at >= 0 && at+1 < len(ladder) {
			out = append(out, s.candidate(k.Mode, ladder[at+1], k.EvictPolicy, k.EvictLazily))
		}
	}
	rung := k.IOThreads + k.PrefetchDepth // exactly one is set, or neither
	for _, pol := range s.space.EvictPolicies {
		if pol != k.EvictPolicy {
			out = append(out, s.candidate(k.Mode, rung, pol, k.EvictLazily))
		}
	}
	for _, lz := range s.space.Lazy {
		if lz != k.EvictLazily {
			out = append(out, s.candidate(k.Mode, rung, k.EvictPolicy, lz))
		}
	}
	return out
}
