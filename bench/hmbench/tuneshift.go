package main

import (
	"bytes"
	"time"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/trace"
	"github.com/hetmem/hetmem/internal/tune"
)

var tuneShift = &workload{
	name:  "tune-shift",
	scale: exp.Small,
	open: func(s exp.Scale, _ int64) (instance, error) {
		t := &tuneRun{s: s}
		return instance{pass: t.pass, probe: t.probe}, nil
	},
}

// tuneRun is the opened tune-shift workload.
type tuneRun struct {
	s exp.Scale
	// last is the most recent decoded capture, for the reconstruct probe.
	last *trace.Capture
}

// shiftOptions is X10's fixed-run configuration under the declaration-
// order victim policy: the capture X15's offline search improves on.
func shiftOptions(s exp.Scale) core.Options {
	o := paperOptions(s, core.MultiIO)
	o.EvictLazily = true
	o.EvictPolicy = core.DeclOrder
	o.PrefetchDepth = 1
	o.Metrics = true
	return o
}

// pass records the X10 shift workload, round-trips the capture through
// the JSONL codec and runs X15's search, scoped to Multi-IO, over it.
func (t *tuneRun) pass(sp *spans, parent int) passResult {
	res := passResult{counts: map[string]float64{}, rates: map[string]float64{}, attempted: 1}
	step := func(name string, fn func() error) (float64, bool) {
		id := sp.begin(name, parent)
		t0 := time.Now()
		err := fn()
		sp.end(id)
		if err != nil {
			res.fail(1, "%s: %v", name, err)
		}
		return time.Since(t0).Seconds(), err == nil
	}

	var c *trace.Capture
	recordS, ok := step("record", func() error {
		env := newEnv(t.s, shiftOptions(t.s))
		defer env.Close()
		rec := trace.NewRecorder(env.MG)
		rec.Attach()
		app, err := kernels.NewShift(env.MG, t.s.ShiftConfig())
		if err != nil {
			return err
		}
		if _, err := app.Run(); err != nil {
			return err
		}
		rec.Finish()
		c = rec.Capture()
		envCounts(res.counts, env)
		return nil
	})
	if !ok {
		return res
	}
	var buf bytes.Buffer
	encodeS, ok := step("encode", func() error { return c.Encode(&buf) })
	if !ok {
		return res
	}
	var dc *trace.Capture
	decodeS, ok := step("decode", func() (err error) {
		dc, err = trace.Decode(bytes.NewReader(buf.Bytes()))
		return err
	})
	if !ok {
		return res
	}
	t.last = dc
	var ev *tune.Evaluator
	evalS, ok := step("evaluator", func() (err error) {
		ev, err = tune.NewEvaluator(dc)
		return err
	})
	if !ok {
		return res
	}
	res.setupS = decodeS + evalS
	var rc *tune.RecommendedConfig
	searchS, ok := step("search", func() (err error) {
		rc, err = tune.TuneWith(ev, tune.Config{Space: tune.Space{Modes: []string{core.MultiIO.String()}}})
		return err
	})
	if !ok {
		return res
	}

	mb := float64(buf.Len()) / 1e6
	res.counts["trace.capture_events"] = float64(len(c.Events))
	res.counts["trace.capture_mb"] = mb
	res.counts["tune.candidates"] = float64(len(rc.Trace))
	res.counts["tune.replays"] = float64(rc.Replays)
	res.counts["tune.abandoned"] = float64(rc.Abandoned)
	res.counts["tune.memo_hits"] = float64(rc.MemoHits)
	res.rates["trace.record_mb_per_s"] = mb / recordS
	res.rates["trace.encode_mb_per_s"] = mb / encodeS
	res.rates["trace.decode_mb_per_s"] = mb / decodeS
	res.units = float64(rc.Replays)
	res.unitS = searchS
	res.virtualS = rc.PredictedMakespanS
	res.rows = []row{{
		Label: "shift",
		Values: map[string]float64{
			"predicted_makespan_s": rc.PredictedMakespanS,
			"recorded_makespan_s":  rc.RecordedMakespanS,
			"candidates":           float64(len(rc.Trace)),
			"replays":              float64(rc.Replays),
			"abandoned":            float64(rc.Abandoned),
			"memo_hits":            float64(rc.MemoHits),
		},
		Note: "victim=" + rc.Knobs.EvictPolicy + " capture=" + rc.CaptureDigest,
		runs: 1,
	}}
	if want := core.Lookahead.Name(); rc.Knobs.EvictPolicy != want {
		res.fail(1, "tune verdict victim=%s, want %s", rc.Knobs.EvictPolicy, want)
	}
	return res
}

// probe times trace.Reconstruct alone over the last decoded capture; in
// the pass it is hidden inside tune.NewEvaluator.
func (t *tuneRun) probe() map[string]float64 {
	if t.last == nil {
		return nil
	}
	mb := float64(len(t.last.Bytes())) / 1e6
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := trace.Reconstruct(t.last); err != nil {
			return nil
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return map[string]float64{"trace.reconstruct_mb_per_s": mb / median(times)}
}
