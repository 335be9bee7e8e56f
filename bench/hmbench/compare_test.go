package main

import "testing"

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "virtual_s", Exact: true}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"faster", wall, steady, scale(steady, 0.8), "improved"},
		{"slower", wall, steady, scale(steady, 1.2), "regressed"},
		{"within bound", wall, steady, scale(steady, 1.05), "unchanged"},
		{"noisy", wall, steady, []float64{7, 13, 8, 12, 10, 9, 11, 14, 6, 10}, "unresolved"},
		{"higher is better", rate, steady, scale(steady, 1.2), "improved"},
		{"rate dropped", rate, steady, scale(steady, 0.8), "regressed"},
		{"identical", exact, []float64{1.5, 1.5}, []float64{1.5, 1.5}, "identical"},
		{"changed", exact, []float64{1.5, 1.5}, []float64{1.5, 1.5000001}, "changed"},
	} {
		if got, _ := verdict(tc.d, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
