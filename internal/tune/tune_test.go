package tune_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/runner"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
	"github.com/hetmem/hetmem/internal/tune"
)

// captureStencil records the Small Fig8 overflow stencil under MultiIO —
// the same workload the replay-fidelity tests pin.
func captureStencil(t *testing.T) *trace.Capture {
	t.Helper()
	o := core.DefaultOptions(core.MultiIO)
	o.HBMReserve = exp.Small.HBMReserve()
	o.Metrics = true
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Small.Machine(),
		NumPEs: exp.Small.NumPEs(),
		Opts:   o,
		Params: charm.DefaultParams(),
	})
	defer env.Close()
	rec := trace.NewRecorder(env.MG)
	rec.Attach()
	sizes := exp.Small.StencilReducedSizes()
	app, err := kernels.NewStencil(env.MG, exp.Small.StencilConfig(sizes[len(sizes)-1]))
	if err != nil {
		t.Fatalf("NewStencil: %v", err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatalf("stencil run: %v", err)
	}
	rec.Finish()
	return rec.Capture()
}

// TestJudgeMatchesRecordedReplay: the verdict-only replay (Judge, what
// Eval runs) and the recorded one (Replay) agree on every candidate of
// DefaultSpace — each strategy, rung, victim policy and discipline —
// over the Small shift and Fig 8 captures, with no bound and with a
// bound at the recorded makespan: the same makespan bits, the same
// abandon verdict, the movement counters the footer copies, and, for a
// completed replay, the footer's makespan (which X11 used to read).
func TestJudgeMatchesRecordedReplay(t *testing.T) {
	shift, err := exp.ShiftCapture(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cap  *trace.Capture
	}{{"shift", shift}, {"fig8", captureStencil(t)}} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			w, err := trace.Reconstruct(c.cap)
			if err != nil {
				t.Fatal(err)
			}
			space := tune.DefaultSpace()
			abandoned := 0
			for _, mode := range space.Modes {
				rungs := []int{0}
				switch mode {
				case core.SingleIO.String():
					rungs = space.IOThreads
				case core.MultiIO.String():
					rungs = space.PrefetchDepths
				}
				for _, rung := range rungs {
					for _, pol := range space.EvictPolicies {
						for _, lazy := range space.Lazy {
							k := w.Meta.Knobs
							k.Mode, k.EvictPolicy, k.EvictLazily = mode, pol, lazy
							k.IOThreads, k.PrefetchDepth = 0, 0
							if mode == core.SingleIO.String() {
								k.IOThreads = rung
							} else {
								k.PrefetchDepth = rung
							}
							for _, bound := range []sim.Time{0, c.cap.Stats().Makespan} {
								cfg := runner.ReplayConfig{Knobs: &k, AbandonAbove: bound}
								v, err := runner.Judge(w, cfg)
								if err != nil {
									t.Fatal(err)
								}
								rec, err := runner.Replay(w, cfg)
								if err != nil {
									t.Fatal(err)
								}
								foot := rec.Capture.Stats()
								if math.Float64bits(float64(v.Makespan)) != math.Float64bits(float64(rec.Makespan)) ||
									v.Abandoned != rec.Abandoned || foot == nil ||
									v.Stats.Fetches != foot.Fetches || v.Stats.Evictions != foot.Evictions ||
									v.Stats.ForcedEvictions != foot.ForcedEvictions || v.Stats.Refetches != foot.Refetches ||
									!v.Abandoned && v.Makespan != foot.Makespan {
									t.Fatalf("%+v bound %v: verdict %+v, recorded replay %+v with footer %+v",
										k, bound, v, rec.Verdict, foot)
								}
								if v.Abandoned {
									abandoned++
								}
							}
						}
					}
				}
			}
			if abandoned == 0 {
				t.Errorf("no candidate abandoned at the recorded makespan; the bounded leg checks nothing")
			}
		})
	}
}

// TestAbandonedReplayIsSound pins the abandon proof at the replay layer:
// a replay abandoned at bound B must, when replayed fully, have a
// makespan >= B; and a bound above the true makespan must not perturb
// the result.
func TestAbandonedReplayIsSound(t *testing.T) {
	c := captureStencil(t)
	w, err := trace.Reconstruct(c)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	full, err := runner.Replay(w, runner.ReplayConfig{})
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	// Bound at half the true makespan: must abandon, and the claimed
	// lower bound must hold.
	half := full.Makespan / 2
	part, err := runner.Replay(w, runner.ReplayConfig{AbandonAbove: half})
	if err != nil {
		t.Fatalf("bounded replay: %v", err)
	}
	if !part.Abandoned {
		t.Fatalf("replay bounded at %v did not abandon (full makespan %v)", half, full.Makespan)
	}
	if full.Makespan < part.Makespan {
		t.Fatalf("abandon bound %v is not a lower bound on the true makespan %v", part.Makespan, full.Makespan)
	}
	// Bound above the true makespan: completes with the exact result.
	loose, err := runner.Replay(w, runner.ReplayConfig{AbandonAbove: full.Makespan * 2})
	if err != nil {
		t.Fatalf("loose-bound replay: %v", err)
	}
	if loose.Abandoned || loose.Makespan != full.Makespan {
		t.Fatalf("loose bound perturbed the replay: abandoned=%v makespan %v, want %v",
			loose.Abandoned, loose.Makespan, full.Makespan)
	}
}

// TestAbandonNeverEliminatesWinner is the search-level soundness
// property: over seeded sub-spaces of the knob grid, the abandoning
// search must recommend exactly the combination the no-abandon oracle
// ranks first — an abandoned partial replay may only ever discard
// candidates that a full replay would also rank behind the winner.
func TestAbandonNeverEliminatesWinner(t *testing.T) {
	c := captureStencil(t)
	def := tune.DefaultSpace()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Sample a random sub-space: a subset of modes (never empty), a
		// sub-ladder, a subset of policies, both lazy settings.
		sub := tune.Space{Lazy: def.Lazy}
		for _, m := range def.Modes {
			if rng.Intn(2) == 0 {
				sub.Modes = append(sub.Modes, m)
			}
		}
		if len(sub.Modes) == 0 {
			sub.Modes = []string{def.Modes[rng.Intn(len(def.Modes))]}
		}
		sub.IOThreads = def.IOThreads[:1+rng.Intn(len(def.IOThreads))]
		sub.PrefetchDepths = def.PrefetchDepths[:1+rng.Intn(len(def.PrefetchDepths))]
		sub.EvictPolicies = def.EvictPolicies[rng.Intn(len(def.EvictPolicies)):]

		oracle, err := tune.Tune(c, tune.Config{Space: sub, NoAbandon: true})
		if err != nil {
			t.Fatalf("seed %d: oracle tune: %v", seed, err)
		}
		fast, err := tune.Tune(c, tune.Config{Space: sub})
		if err != nil {
			t.Fatalf("seed %d: tune: %v", seed, err)
		}
		if fast.Knobs != oracle.Knobs {
			t.Errorf("seed %d: abandoning search picked %+v, oracle picked %+v", seed, fast.Knobs, oracle.Knobs)
		}
		if fast.PredictedMakespanS != oracle.PredictedMakespanS {
			t.Errorf("seed %d: predicted makespan %v != oracle %v", seed, fast.PredictedMakespanS, oracle.PredictedMakespanS)
		}
		if fast.Abandoned == 0 && len(sub.Modes) > 1 {
			t.Logf("seed %d: note: no candidate was abandoned (space %v)", seed, sub.Modes)
		}
	}
}

// TestTuneDeterministic: two tune runs over the same capture produce
// byte-identical artifacts (modulo the digest, which is itself a pure
// function of the capture — so full byte identity).
func TestTuneDeterministic(t *testing.T) {
	c := captureStencil(t)
	a, err := tune.Tune(c, tune.Config{})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	b, err := tune.Tune(c, tune.Config{})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two tune runs over the same capture differ:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
	if a.Replays == 0 || len(a.Trace) == 0 {
		t.Fatalf("artifact carries no search trace: %+v", a)
	}
	if a.CaptureDigest == "" || a.Version != tune.ArtifactVersion {
		t.Fatalf("artifact missing provenance: %+v", a)
	}
}

// TestEvaluatorMemoizes: asking the evaluator for the same combination
// twice must not replay twice.
func TestEvaluatorMemoizes(t *testing.T) {
	c := captureStencil(t)
	ev, err := tune.NewEvaluator(c)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	k := ev.Base()
	k.EvictPolicy = core.Lookahead.Name()
	first, cached, err := ev.Eval(k, 0)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if cached {
		t.Fatalf("first eval reported a memo hit")
	}
	second, cached, err := ev.Eval(k, 0)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !cached || second.Makespan != first.Makespan {
		t.Fatalf("memo miss on repeat query: cached=%v makespan %v vs %v", cached, second.Makespan, first.Makespan)
	}
	replays, _, hits := ev.Stats()
	if replays != 1 || hits != 1 {
		t.Fatalf("replays=%d hits=%d, want 1 and 1", replays, hits)
	}
}

// TestArtifactRoundTrip: Save -> Load preserves the verdict and rejects
// foreign versions.
func TestArtifactRoundTrip(t *testing.T) {
	c := captureStencil(t)
	rc, err := tune.Tune(c, tune.Config{Space: tune.Space{
		Modes:         []string{core.MultiIO.String()},
		EvictPolicies: []string{core.DeclOrder.Name()},
	}})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	path := t.TempDir() + "/" + tune.ArtifactName
	if err := rc.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := tune.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Knobs != rc.Knobs || got.CaptureDigest != rc.CaptureDigest {
		t.Fatalf("round trip changed the artifact: %+v vs %+v", got, rc)
	}
	if _, err := got.Options(); err != nil {
		t.Fatalf("recommended knobs do not rebuild options: %v", err)
	}
}
