package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// reportFile is what -json writes: one report per workload run.
type reportFile struct {
	Reports []*report `json:"reports"`
}

// loadReports reads -json files into per-workload report lists, in
// file order, so the i-th invocations of both sides form a pair.
func loadReports(paths []string) (map[string][]*report, error) {
	out := map[string][]*report{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f reportFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Reports {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// verdict judges one workload × metric from the parent's and the
// change's per-invocation values, paired by index. It returns the
// verdict and how many pairs the change won (ties count for neither).
//
//   - exact metrics must be identical on every invocation;
//   - "improved" needs at least ten pairs, ≥9/10 of them won, and a
//     median gap wider than the parent's interquartile range;
//   - "regressed" is a median worse than the parent's by more than the
//     metric's bound;
//   - "unresolved" is a spread (interquartile range over median) wider
//     than the bound on either side.
func verdict(d metricDef, parent, change []float64) (string, int) {
	if d.Exact {
		for _, v := range append(append([]float64(nil), parent...), change...) {
			if v != parent[0] {
				return "changed", 0
			}
		}
		return "identical", 0
	}
	sign := 1.0 // positive means "change is worse"
	if d.Better == "higher" {
		sign = -1
	}
	pairs, won := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) < 0 {
			won++
		}
	}
	mp, mc := median(parent), median(change)
	worse := sign * (mc - mp) / math.Abs(mp)
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	spread := func(xs []float64) float64 {
		return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(median(xs))
	}
	switch {
	case pairs >= 10 && 10*won >= 9*pairs && worse < 0 && math.Abs(mc-mp) > iqr:
		return "improved", won
	case d.Bound == 0:
		return "-", won // per-layer host measurement: no bound to judge by
	case worse > d.Bound:
		return "regressed", won
	case spread(parent) > d.Bound || spread(change) > d.Bound:
		return "unresolved", won
	}
	return "unchanged", won
}

// compareMain implements `hmbench compare PARENT.json… -- CHANGE.json…`.
// It exits 1 when any metric regressed or a deterministic value changed.
func compareMain(args []string, out io.Writer) int {
	var parentPaths, changePaths []string
	side := &parentPaths
	for _, a := range args {
		if a == "--" {
			side = &changePaths
			continue
		}
		*side = append(*side, a)
	}
	if len(parentPaths) == 0 || len(changePaths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: hmbench compare PARENT.json... -- CHANGE.json...")
		return 2
	}
	parent, err := loadReports(parentPaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmbench compare:", err)
		return 2
	}
	change, err := loadReports(changePaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmbench compare:", err)
		return 2
	}
	var names []string
	for w := range parent {
		if _, ok := change[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	rc := 0
	fmt.Fprintln(out, "workload metric unit parent[p25,p75] change[p25,p75] won verdict")
	for _, w := range names {
		for _, d := range allMetrics() {
			pv, cv := values(parent[w], d.Name), values(change[w], d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, won := verdict(d, pv, cv)
			if v == "regressed" || v == "changed" {
				rc = 1
			}
			fmt.Fprintf(out, "%s %s %s %s %s %d/%d %s\n", w, d.Name, d.Unit,
				summary(pv), summary(cv), won, min(len(pv), len(cv)), v)
		}
	}
	return rc
}

func values(reps []*report, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func summary(xs []float64) string {
	return fmt.Sprintf("%s[%s,%s]", num(median(xs)), num(quantile(xs, 0.25)), num(quantile(xs, 0.75)))
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
