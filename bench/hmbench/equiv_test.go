package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
)

// These tests hold each workload to the paper driver it claims to time:
// one Small-scale pass must reproduce the driver's virtual results
// exactly, so the benchmark cannot drift into timing a lookalike.

func rowsByLabel(t *testing.T, res passResult) map[string]row {
	t.Helper()
	if res.failed > 0 {
		t.Fatalf("pass failed: %v", res.problems)
	}
	out := map[string]row{}
	for _, r := range res.rows {
		out[r.Label] = r
	}
	return out
}

func checkFigure(t *testing.T, got map[string]row, size int64, times map[core.Mode]float64, fetches map[core.Mode]int64) {
	t.Helper()
	for mode, want := range times {
		label := fmt.Sprintf("%s %v", gbLabel(size), mode)
		r, ok := got[label]
		if !ok {
			t.Errorf("%s: no row", label)
			continue
		}
		if r.Values["makespan_s"] != want || r.Values["fetches"] != float64(fetches[mode]) {
			t.Errorf("%s: makespan %v fetches %v, exp has %v and %d",
				label, r.Values["makespan_s"], r.Values["fetches"], want, fetches[mode])
		}
	}
}

func TestFig8MatchesExp(t *testing.T) {
	want, err := exp.RunFig8(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsByLabel(t, fig8(exp.Small).pass(nil, 0))
	if n := 3 * 4; len(got) != n {
		t.Errorf("%d rows, want %d", len(got), n)
	}
	for _, r := range want.Rows {
		checkFigure(t, got, r.ReducedBytes, r.Times, r.Fetches)
	}
}

func TestFig9MatchesExp(t *testing.T) {
	want, err := exp.RunFig9(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsByLabel(t, fig9(exp.Small).pass(nil, 0))
	if n := 3 * 5; len(got) != n {
		t.Errorf("%d rows, want %d", len(got), n)
	}
	for _, r := range want.Rows {
		checkFigure(t, got, r.TotalBytes, r.Times, r.Fetches)
	}
}

func TestServeMixMatchesX13(t *testing.T) {
	want, err := exp.RunX13(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := openServeMix(exp.Small, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsByLabel(t, inst.pass(nil, 0))
	wantRows := serveRows(want.Bench())
	if len(got) != len(wantRows) {
		t.Fatalf("%d load rows, X13 has %d", len(got), len(wantRows))
	}
	for _, w := range wantRows {
		if g := got[w.Label]; !reflect.DeepEqual(g.Values, w.Values) {
			t.Errorf("load %s: %v, X13 has %v", w.Label, g.Values, w.Values)
		}
	}
}

func TestTuneShiftMatchesX15(t *testing.T) {
	want, err := exp.RunX15(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tuneShift.open(exp.Small, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsByLabel(t, inst.pass(nil, 0))["shift"]
	w := want.Tune
	wantValues := map[string]float64{
		"predicted_makespan_s": w.PredictedS,
		"recorded_makespan_s":  w.RecordedS,
		"candidates":           float64(w.Candidates),
		"replays":              float64(w.Replays),
		"abandoned":            float64(w.Abandoned),
		"memo_hits":            float64(w.MemoHits),
	}
	if !reflect.DeepEqual(got.Values, wantValues) {
		t.Errorf("tune: %v, X15 has %v", got.Values, wantValues)
	}
	if note := "victim=" + w.Recommended.EvictPolicy + " capture=" + w.CaptureDigest; got.Note != note {
		t.Errorf("tune: %q, X15 has %q", got.Note, note)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// catalogue the benchmark prints from in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", listed, names)
	}
	strip := func(ds []metricDef) []metricDef {
		out := append([]metricDef(nil), ds...)
		for i := range out {
			out[i].Exact = false
		}
		return out
	}
	if !reflect.DeepEqual(b.EndToEnd, strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %+v, catalogue %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, strip(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer %+v, catalogue %+v", b.PerLayer, perLayer)
	}
}
