package tune

import (
	"crypto/sha256"
	"encoding/hex"

	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
)

// Eval is one judged knob combination: the makespan the replay engine
// measured for it, or — when Abandoned — the proof that its makespan is
// at least Bound (the replay was cut off as soon as that was certain).
type Eval struct {
	Knobs     trace.Knobs `json:"knobs"`
	Makespan  sim.Time    `json:"makespan_s"`
	Abandoned bool        `json:"abandoned,omitempty"`
	// Bound is the abandon bound the replay ran under (0 = none). An
	// abandoned Eval proves Makespan >= Bound and nothing tighter, so a
	// memo hit is only conclusive for queries with bounds <= Bound.
	Bound sim.Time `json:"-"`
}

// Evaluator turns a capture into a reusable makespan oracle: the
// workload is reconstructed once, every judged knob set replays through
// the real scheduler, and results are memoized by knob value so a
// search (or a what-if loop) never pays for the same combination twice.
// It is the single replay path shared by `hmtrace tune`, `hmtrace
// whatif` and the X15 driver. Eval's replays attach no recorder
// (runner.Judge), since a verdict reads only the makespan; Replay
// records, for callers that compare schedules.
type Evaluator struct {
	cap    *trace.Capture
	w      *trace.Workload
	digest string
	memo   map[trace.Knobs]Eval

	replays  int
	abandons int
	hits     int
}

// Digest fingerprints a capture: SHA-256 hex of its canonical encoding.
// It is the identity artifacts carry, and what `hmtrace summary` checks
// before attributing an artifact's verdict to a capture.
func Digest(c *trace.Capture) string {
	sum := sha256.Sum256(c.Bytes())
	return hex.EncodeToString(sum[:])
}

// NewEvaluator reconstructs the capture's workload and fingerprints the
// capture so artifacts can name the exact input they were computed from.
func NewEvaluator(c *trace.Capture) (*Evaluator, error) {
	w, err := trace.Reconstruct(c)
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		cap:    c,
		w:      w,
		digest: Digest(c),
		memo:   make(map[trace.Knobs]Eval),
	}, nil
}

// Base returns the capture's recorded knob set — the template judged
// combinations are derived from (fields outside the search space keep
// their recorded values).
func (e *Evaluator) Base() trace.Knobs { return e.w.Meta.Knobs }

// Digest returns the capture fingerprint (SHA-256 hex).
func (e *Evaluator) Digest() string { return e.digest }

// RecordedMakespan returns the makespan of the original run from the
// capture's stats footer, or 0 for a truncated capture without one.
func (e *Evaluator) RecordedMakespan() sim.Time {
	if st := e.cap.Stats(); st != nil {
		return st.Makespan
	}
	return 0
}

// Stats reports how many replays ran, how many of those were abandoned
// early, and how many queries the memo answered without replaying.
func (e *Evaluator) Stats() (replays, abandons, memoHits int) {
	return e.replays, e.abandons, e.hits
}

// Eval judges one knob combination. bound > 0 enables early abandon:
// the replay stops as soon as its makespan provably cannot beat the
// bound (runner.ReplayConfig.AbandonAbove). cached reports a memo hit.
//
// Memo semantics under abandonment: a completed Eval answers any query;
// an abandoned one proves only Makespan >= its Bound, so it satisfies a
// new query only when the new bound is <= the proven one. A search
// whose incumbent only improves always passes shrinking bounds, so its
// memo hits are always conclusive; a looser query re-replays and the
// stored entry is upgraded.
func (e *Evaluator) Eval(k trace.Knobs, bound sim.Time) (Eval, bool, error) {
	if v, ok := e.memo[k]; ok && (!v.Abandoned || (bound > 0 && bound <= v.Bound)) {
		e.hits++
		return v, true, nil
	}
	v, err := runner.Judge(e.w, runner.ReplayConfig{Knobs: &k, AbandonAbove: bound})
	if err != nil {
		return Eval{}, false, err
	}
	return e.note(k, bound, v), false, nil
}

// Replay judges k like Eval but records the replay and returns its
// result, capture included — what `hmtrace whatif` renders its
// comparison table from. The verdict still lands in the memo (so a
// following search benefits), but a memo hit cannot reproduce a
// capture, so Replay always re-drives the workload.
func (e *Evaluator) Replay(k trace.Knobs, bound sim.Time) (*runner.ReplayResult, error) {
	res, err := runner.Replay(e.w, runner.ReplayConfig{Knobs: &k, AbandonAbove: bound})
	if err != nil {
		return nil, err
	}
	e.note(k, bound, res.Verdict)
	return res, nil
}

// note counts a replay of k under bound and memoizes its verdict.
func (e *Evaluator) note(k trace.Knobs, bound sim.Time, v runner.Verdict) Eval {
	e.replays++
	if v.Abandoned {
		e.abandons++
	}
	ev := Eval{Knobs: k, Makespan: v.Makespan, Abandoned: v.Abandoned, Bound: bound}
	e.memo[k] = ev
	return ev
}
