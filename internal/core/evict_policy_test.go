package core

import (
	"testing"
)

func TestParseEvictPolicy(t *testing.T) {
	for _, p := range EvictPolicies() {
		got, err := ParseEvictPolicy(p.Name())
		if err != nil || got != p {
			t.Errorf("ParseEvictPolicy(%q) = %v, %v; want %v", p.Name(), got, err, p)
		}
	}
	if _, err := ParseEvictPolicy("belady"); err == nil {
		t.Error("ParseEvictPolicy accepted an unknown name")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Mode
		ok   bool
	}{
		{"ddr4only", DDROnly, true},
		{"naive", Baseline, true},
		{"single", SingleIO, true},
		{"noio", NoIO, true},
		{"multi", MultiIO, true},
		{"no", 0, false},
		{"ddr", 0, false},
		{"", 0, false},
	} {
		got, err := ParseMode(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

func TestEvictPolicyRejectedOnStaticModes(t *testing.T) {
	for _, mode := range []Mode{DDROnly, Baseline} {
		o := DefaultOptions(mode)
		o.EvictPolicy = Lookahead
		if err := o.Validate(); err == nil {
			t.Errorf("mode %v accepted an eviction policy but never evicts", mode)
		}
	}
}

// mkCands declares dead resident handles with the given pendingUses
// and lastUse stamps, named a, b, c, ... in declaration order.
func mkCands(env *env, pending []int, lastUse []float64) []*Handle {
	cands := make([]*Handle, len(pending))
	for i := range pending {
		h := env.mg.NewHandle(string(rune('a'+i)), 1)
		h.pendingUses = pending[i]
		h.lastUse = lastUse[i]
		env.mg.setState(h, InHBM)
		cands[i] = h
	}
	return cands
}

func names(hs []*Handle) string {
	var s string
	for _, h := range hs {
		s += h.name
	}
	return s
}

// rankAll drains one forced ranking of the manager's dead blocks under
// pol: every candidate, best victim first. It checks the order against
// the sort oracle's.
func rankAll(t *testing.T, m *Manager, pol EvictPolicy, nextUse func(*Handle) int) string {
	t.Helper()
	v := m.takeVictims(nil)
	defer m.putVictims(v)
	v.rank(pol, true, nextUse)
	var got []*Handle
	for h := v.next(); h != nil; h = v.next() {
		got = append(got, h)
	}
	v.done()
	if want := oracleRank(pol, nextUse, oracleCandidates(m)); names(got) != names(want) {
		t.Fatalf("%s: index order %q, sort oracle %q", pol.Name(), names(got), names(want))
	}
	return names(got)
}

func TestDeclOrderRankPartitionsDeadFirst(t *testing.T) {
	// Satellite of the forced-pass fix: a later-declared dead block
	// must rank ahead of an earlier-declared pending one, while
	// declaration order is kept within each class.
	env := newEnv(t, 2, DefaultOptions(MultiIO))
	mkCands(env, []int{1, 0, 2, 0}, []float64{0, 0, 0, 0})
	if got := rankAll(t, env.mg, DeclOrder, nil); got != "bdac" {
		t.Fatalf("DeclOrder rank = %q, want bdac", got)
	}
}

func TestLRURankOldestFirst(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(MultiIO))
	mkCands(env, []int{0, 0, 0}, []float64{5, 1, 3})
	if got := rankAll(t, env.mg, LRU, nil); got != "bca" {
		t.Fatalf("LRU rank = %q, want bca", got)
	}
}

func TestLookaheadRankFarthestFirst(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(MultiIO))
	// a: next use 2 deep, b: none visible, c: imminent, d: none
	// visible but released after b. Want: most-recently-released dead
	// block first (cyclic prior), then by distance descending.
	mkCands(env, []int{1, 0, 1, 0}, []float64{0, 1, 0, 2})
	dist := map[string]int{"a": 2, "c": 0}
	nextUse := func(h *Handle) int {
		if h.pendingUses == 0 {
			return NoNextUse
		}
		return dist[h.name]
	}
	if got := rankAll(t, env.mg, Lookahead, nextUse); got != "dbac" {
		t.Fatalf("Lookahead rank = %q, want dbac", got)
	}
}

// TestPoliciesEndToEnd runs an out-of-core working set under every
// policy and every movement mode with the invariant auditor on: no
// policy may break conservation, evict an in-use or claimed block
// (the auditor and assertQuiescent would catch both), or strand the
// run. Per-policy metrics must attribute the evictions.
func TestPoliciesEndToEnd(t *testing.T) {
	for _, mode := range []Mode{SingleIO, NoIO, MultiIO} {
		for _, pol := range EvictPolicies() {
			t.Run(mode.String()+"/"+pol.Name(), func(t *testing.T) {
				opts := DefaultOptions(mode)
				opts.EvictLazily = true
				opts.EvictPolicy = pol
				env := newEnv(t, 4, opts)
				app := buildApp(env, 12, 512*1024*1024, 3, nil)
				app.run(t)
				assertQuiescent(t, env)
				if env.mg.Stats.Evictions == 0 {
					t.Fatal("no evictions despite out-of-core working set")
				}
				snap, ok := env.mg.AuditSnapshot()
				if !ok {
					t.Fatal("no audit snapshot")
				}
				if snap.EvictPolicy != pol.Name() {
					t.Fatalf("snapshot policy %q, want %q", snap.EvictPolicy, pol.Name())
				}
				pc := snap.PolicyStats[pol.Name()]
				if pc.Evictions != env.mg.Stats.Evictions {
					t.Fatalf("policy counters saw %d evictions, manager %d",
						pc.Evictions, env.mg.Stats.Evictions)
				}
				if pc.Refetches != env.mg.Stats.Refetches {
					t.Fatalf("policy counters saw %d refetches, manager %d",
						pc.Refetches, env.mg.Stats.Refetches)
				}
			})
		}
	}
}

// TestRetuneSwitchesEvictPolicy: the policy is a dynamic knob — a
// Retune mid-quiescence changes which policy subsequent reclaims use
// and how their evictions are attributed.
func TestRetuneSwitchesEvictPolicy(t *testing.T) {
	opts := DefaultOptions(MultiIO)
	opts.EvictLazily = true
	env := newEnv(t, 4, opts)
	app := buildApp(env, 12, 512*1024*1024, 3, nil)
	app.onBarrier = func() {
		if app.curIter == 1 {
			o := env.mg.Options()
			o.EvictPolicy = Lookahead
			if err := env.mg.Retune(o); err != nil {
				t.Errorf("retune: %v", err)
			}
		}
	}
	app.run(t)
	assertQuiescent(t, env)
	snap, ok := env.mg.AuditSnapshot()
	if !ok {
		t.Fatal("no audit snapshot")
	}
	if snap.EvictPolicy != Lookahead.Name() {
		t.Fatalf("final policy %q, want lookahead", snap.EvictPolicy)
	}
	decl := snap.PolicyStats[DeclOrder.Name()]
	look := snap.PolicyStats[Lookahead.Name()]
	if decl.Evictions == 0 || look.Evictions == 0 {
		t.Fatalf("want evictions attributed to both policies, got decl=%d lookahead=%d",
			decl.Evictions, look.Evictions)
	}
	if decl.Evictions+look.Evictions != env.mg.Stats.Evictions {
		t.Fatalf("attribution split %d+%d != total %d",
			decl.Evictions, look.Evictions, env.mg.Stats.Evictions)
	}
}

// TestHandlesReturnsCopy: mutating the returned slice must not corrupt
// the manager's internal registry (it used to alias it).
func TestHandlesReturnsCopy(t *testing.T) {
	env := newEnv(t, 2, DefaultOptions(MultiIO))
	a := env.mg.NewHandle("a", 1)
	env.mg.NewHandle("b", 1)
	hs := env.mg.Handles()
	if len(hs) != 2 {
		t.Fatalf("Handles() = %d entries, want 2", len(hs))
	}
	hs[0] = nil
	hs = append(hs[:1], hs[1:]...)
	again := env.mg.Handles()
	if len(again) != 2 || again[0] != a {
		t.Fatal("mutating the returned slice corrupted the registry")
	}
}
