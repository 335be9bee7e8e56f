package exp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
)

// X14 sweeps the memory chain depth: the Fig 8 stencil overflow point
// and the Fig 9 matmul largest working set run on 2-, 3- and 4-tier
// machines (HBM → DDR4, + NVM, + Remote per topology.TieredKNL) under
// the DeclOrder and Lookahead victim policies.
//
// The two policies differ in where victims land. DeclOrder drops them
// to the bottom of the chain (the paper's two-tier behaviour continued
// literally), so on deeper chains every wrong victim is refetched at
// NVM or remote-link bandwidth. Lookahead demotes one level — a block
// it mispredicts waits in DDR4, and the refetch costs what it did on
// the paper's machine. The acceptance bar is therefore that
// Lookahead's absolute advantage (time(decl) − time(lookahead)) widens
// strictly as the chain deepens, on both applications, and that
// Lookahead wins outright wherever the chain is deeper than the
// paper's. (On the 2-tier machine the demotion rules coincide and the
// policies may tie or trade places within noise — Fig 9's matmul
// slightly favours DeclOrder there.)

// x14Apps and x14Depths fix the sweep axes (and the ordering the gate
// checks).
var (
	x14Apps   = []string{"fig8-stencil", "fig9-matmul"}
	x14Depths = []int{2, 3, 4}
)

// x14Policies are the two policies the gate compares. LRU is omitted:
// it shares DeclOrder's demote-to-bottom rule, so depth moves it the
// same way (the 3-tier eviction tests cover it).
func x14Policies() []core.EvictPolicy {
	return []core.EvictPolicy{core.DeclOrder, core.Lookahead}
}

// X14Row is one app × depth × policy run, as BENCH_tiers.json records
// it.
type X14Row struct {
	App    string  `json:"app"`
	Depth  int     `json:"tiers"`
	Policy string  `json:"policy"`
	Time   float64 `json:"time_s"`
	// Counter block, from the metrics snapshot.
	Fetches   int64 `json:"fetches"`
	Refetches int64 `json:"refetches"`
	Evictions int64 `json:"evictions"`
	Forced    int64 `json:"forced_evictions"`
	// Per-edge demotion split: bytes evicted from HBM to the adjacent
	// tier versus to anything deeper. DeclOrder rows put everything in
	// DemotedDeep (or DemotedNext on 2-tier chains, where the adjacent
	// tier is the bottom); Lookahead rows put everything in
	// DemotedNext.
	DemotedNext int64 `json:"demoted_next_bytes"`
	DemotedDeep int64 `json:"demoted_deep_bytes"`
}

// X14Result is the finished sweep.
type X14Result struct {
	Scale Scale
	Rows  []X14Row
}

// Row returns the row for an app/depth/policy triple, or nil.
func (r *X14Result) Row(app string, depth int, policy string) *X14Row {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.App == app && row.Depth == depth && row.Policy == policy {
			return row
		}
	}
	return nil
}

// Gap returns time(decl) − time(lookahead) for an app at a depth — the
// absolute advantage the gate requires to widen with depth. The
// initial load from the bottom tier slows both policies equally, so it
// cancels here; what remains is the miss-cost difference the demotion
// rules create.
func (r *X14Result) Gap(app string, depth int) float64 {
	d := r.Row(app, depth, core.DeclOrder.Name())
	l := r.Row(app, depth, core.Lookahead.Name())
	if d == nil || l == nil {
		return 0
	}
	return d.Time - l.Time
}

// Pass checks the acceptance bar: on every chain deeper than two tiers
// Lookahead beats DeclOrder outright, and for each app the gap widens
// strictly as the chain deepens (including from the 2-tier baseline,
// where the policies may tie or trade places).
func (r *X14Result) Pass() error {
	for _, app := range x14Apps {
		prevGap := 0.0
		for i, depth := range x14Depths {
			d := r.Row(app, depth, core.DeclOrder.Name())
			l := r.Row(app, depth, core.Lookahead.Name())
			if d == nil || l == nil {
				return fmt.Errorf("exp: x14 %s depth %d: missing rows", app, depth)
			}
			if depth > 2 && l.Time >= d.Time {
				return fmt.Errorf("exp: x14 %s depth %d: lookahead (%.3f s) not faster than decl (%.3f s)",
					app, depth, l.Time, d.Time)
			}
			gap := d.Time - l.Time
			if i > 0 && gap <= prevGap {
				return fmt.Errorf("exp: x14 %s: gap did not widen from depth %d (%.3f s) to depth %d (%.3f s)",
					app, x14Depths[i-1], prevGap, depth, gap)
			}
			prevGap = gap
		}
	}
	return nil
}

// x14Row runs one app on a depth-tier chain under one policy.
func (sw *Sweep) x14Row(app string, depth int, pol core.EvictPolicy) (X14Row, error) {
	s := sw.Scale
	row := X14Row{App: app, Depth: depth, Policy: pol.Name()}
	spec, err := s.TieredMachine(depth)
	if err != nil {
		return row, err
	}
	var cfg kernels.Workload
	switch app {
	case "fig8-stencil":
		cfg = s.overflowStencil()
	case "fig9-matmul":
		sizes := s.MatMulTotalSizes()
		cfg = s.MatMulConfig(sizes[len(sizes)-1])
	default:
		return row, fmt.Errorf("exp: x14 unknown app %q", app)
	}
	r := sw.run(sw.x10Options(pol), cfg)
	r.Spec = spec
	o, err := sw.do(r)
	if err != nil {
		return row, fmt.Errorf("exp: x14 %s depth %d %s: %w", app, depth, pol.Name(), err)
	}
	row.Time = float64(o.Time)
	row.Fetches = o.Stats.Fetches
	row.Refetches = o.Stats.Refetches
	row.Evictions = o.Stats.Evictions
	row.Forced = o.Stats.ForcedEvictions

	near, next := o.Chain[0], o.Chain[1]
	edges := o.Stats.EdgeBytes
	keys := make([]string, 0, len(edges))
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		src, dst, ok := strings.Cut(key, "->")
		if !ok || src != near {
			continue
		}
		if dst == next {
			row.DemotedNext += edges[key]
		} else {
			row.DemotedDeep += edges[key]
		}
	}
	return row, nil
}

// X14 runs the full depth sweep at the sweep's scale.
func (sw *Sweep) X14() (*X14Result, error) {
	res := &X14Result{Scale: sw.Scale}
	for _, app := range x14Apps {
		for _, depth := range x14Depths {
			for _, pol := range x14Policies() {
				row, err := sw.x14Row(app, depth, pol)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// Table renders the sweep with the per-depth gaps in the notes.
func (r *X14Result) Table() Table {
	t := Table{
		Title: "X14: victim policy vs memory chain depth (2 = paper's machine, 3 = +NVM, 4 = +remote pool)",
		Header: []string{"app", "tiers", "policy", "time (s)", "fetches", "refetches",
			"evictions", "forced", "demoted next", "demoted deep"},
		Notes: []string{
			"decl drops victims to the bottom tier; lookahead demotes one level",
			"demoted next/deep = bytes evicted from HBM to the adjacent tier vs anything deeper",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App,
			fmt.Sprintf("%d", row.Depth),
			row.Policy,
			f3(row.Time),
			fmt.Sprintf("%d", row.Fetches),
			fmt.Sprintf("%d", row.Refetches),
			fmt.Sprintf("%d", row.Evictions),
			fmt.Sprintf("%d", row.Forced),
			gbs(row.DemotedNext),
			gbs(row.DemotedDeep),
		})
	}
	for _, app := range x14Apps {
		var gaps []string
		for _, depth := range x14Depths {
			gaps = append(gaps, fmt.Sprintf("%d-tier %.3f s", depth, r.Gap(app, depth)))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s lookahead advantage: %s", app, strings.Join(gaps, ", ")))
	}
	return t
}

// X14Bench is the benchmark snapshot X14 writes (BENCH_tiers.json).
type X14Bench struct {
	Scale string   `json:"scale"`
	Rows  []X14Row `json:"rows"`
}

// Bench converts the result for JSON emission, rows sorted so the file
// is byte-identical across runs.
func (r *X14Result) Bench() X14Bench {
	rows := slices.Clone(r.Rows)
	slices.SortStableFunc(rows, func(a, b X14Row) int {
		return cmp.Or(strings.Compare(a.App, b.App), cmp.Compare(a.Depth, b.Depth), strings.Compare(a.Policy, b.Policy))
	})
	return X14Bench{Scale: r.Scale.String(), Rows: rows}
}
