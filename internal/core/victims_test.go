package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/hetmem/hetmem/internal/sim"
)

// The victim order as makeRoom took it before the dead index: a scan of
// every handle for the dead resident blocks, next uses resolved in
// declaration order, then a stable sort over the policy's comparison.
// It survives as the oracle the index path is checked against.

// rank runs a ranking to its end as a blocking call: startRank, then
// rankStep, parking the pass's process where the walk waits for a
// queue lock.
func (v *victims) rank(pol EvictPolicy, force bool, nextUse func(*Handle) int) {
	v.startRank(pol, force, nextUse)
	for !v.rankStep() {
		v.p.Suspend()
	}
}

// oracleCandidates scans every handle for the dead resident blocks
// (InHBM, unreferenced, unclaimed), in declaration order.
func oracleCandidates(m *Manager) []*Handle {
	var cands []*Handle
	for _, h := range m.handles {
		if h.state == InHBM && !h.InUse() && h.claims == 0 {
			cands = append(cands, h)
		}
	}
	return cands
}

// oracleRank orders cands best-victim-first under pol with the sorts
// the policies' Rank methods ran, taking next uses from nextUse.
func oracleRank(pol EvictPolicy, nextUse func(*Handle) int, cands []*Handle) []*Handle {
	switch pol {
	case DeclOrder:
		sort.SliceStable(cands, func(i, j int) bool {
			return cands[i].pendingUses == 0 && cands[j].pendingUses > 0
		})
		return cands
	case LRU:
		sort.SliceStable(cands, func(i, j int) bool {
			return cands[i].lastUse < cands[j].lastUse
		})
		return cands
	case Lookahead:
		dist := make([]int, len(cands))
		for i, h := range cands {
			dist[i] = nextUse(h)
		}
		idx := make([]int, len(cands))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if dist[idx[a]] != dist[idx[b]] {
				return dist[idx[a]] > dist[idx[b]]
			}
			return cands[idx[a]].lastUse > cands[idx[b]].lastUse
		})
		out := make([]*Handle, len(cands))
		for i, j := range idx {
			out[i] = cands[j]
		}
		return out
	}
	panic("oracleRank: unknown policy " + pol.Name())
}

// victimWorld is a seeded manager state with a log of what its passes
// do. Its mutations stand in for the processes that run while a pass
// parks: in an eviction, or in Lookahead's queue walk.
type victimWorld struct {
	m    *Manager
	rng  *rand.Rand
	dist []int // each handle's next use when it has pending uses
	log  []string
}

func newVictimWorld(t *testing.T, pol EvictPolicy, seed int64) *victimWorld {
	opts := DefaultOptions(MultiIO)
	opts.EvictLazily = true
	opts.EvictPolicy = pol
	w := &victimWorld{m: newEnv(t, 2, opts).mg, rng: rand.New(rand.NewSource(seed))}
	// Up to 150 handles, so the index spans several words.
	for i, n := 0, 1+w.rng.Intn(150); i < n; i++ {
		h := w.m.NewHandle(fmt.Sprintf("h%d", i), 1)
		if w.rng.Intn(4) > 0 {
			w.m.setState(h, InHBM)
		}
		if w.rng.Intn(6) == 0 {
			h.pin()
		}
		if w.rng.Intn(8) == 0 {
			h.claim(1)
		}
		if w.rng.Intn(2) == 0 {
			h.pendingUses = 1 + w.rng.Intn(3)
		}
		// Few distinct stamps and distances: ties on lastUse, and on
		// next use, are the rule.
		h.lastUse = float64(w.rng.Intn(4))
		w.dist = append(w.dist, w.rng.Intn(4))
	}
	return w
}

// mutate changes a few random blocks as other processes would: a use
// created or completed (which wakes the first passes under way), a pin
// taken or dropped, a claim, a block fetched or evicted.
func (w *victimWorld) mutate() {
	m := w.m
	for k := w.rng.Intn(5); k > 0; k-- {
		h := m.handles[w.rng.Intn(len(m.handles))]
		switch w.rng.Intn(6) {
		case 0:
			h.pendingUses++
		case 1, 2:
			if h.pendingUses > 0 {
				m.useDone(h, float64(w.rng.Intn(6)))
			}
		case 3:
			if h.refs > 0 && w.rng.Intn(2) == 0 {
				h.unpin()
			} else {
				h.pin()
			}
		case 4:
			if h.claims > 0 {
				h.claim(-1)
			} else {
				h.claim(1)
			}
		case 5:
			if h.state == InHBM {
				m.setState(h, InDDR)
			} else {
				m.setState(h, InHBM)
			}
		}
	}
}

// nextUse returns a pass's next-use source: the first lookup of a
// block with pending uses walks, and the walk parks the pass while the
// world changes — including the blocks looked up before it, which gain
// pending uses and complete uses (so new last uses) meanwhile.
func (w *victimWorld) nextUse(label string) func(*Handle) int {
	walked := false
	var seen []*Handle
	return func(h *Handle) int {
		w.log = append(w.log, label+" use "+h.name)
		if h.pendingUses == 0 {
			seen = append(seen, h)
			return NoNextUse
		}
		if !walked {
			walked = true
			w.log = append(w.log, label+" walk")
			for _, s := range seen {
				if w.rng.Intn(2) == 0 {
					s.pendingUses++
				}
				if s.pendingUses > 0 && w.rng.Intn(2) == 0 {
					w.m.useDone(s, float64(w.rng.Intn(6)))
				}
			}
			w.mutate()
		}
		return w.dist[h.id]
	}
}

// take records a victim and plays out its eviction: evict moves the
// block out if it is still eligible, and other processes run meanwhile.
func (w *victimWorld) take(label string, h *Handle, force bool) {
	w.log = append(w.log, label+" take "+h.name)
	if h.state == InHBM && h.refs == 0 && h.claims == 0 && (force || h.pendingUses == 0) {
		w.m.setState(h, InDDR)
	}
	w.mutate()
}

// victimSource starts one pass: its victims, nil when exhausted, and
// the call that ends it.
type victimSource func(w *victimWorld, label string, force bool) (next func() *Handle, end func())

func indexVictims(w *victimWorld, label string, force bool) (func() *Handle, func()) {
	v := w.m.takeVictims(nil)
	v.rank(w.m.evictPolicy(), force, w.nextUse(label))
	return v.next, func() { v.done(); w.m.putVictims(v) }
}

// keyedVictims ranks through the policy's keys and a heap even for
// DeclOrder, whose passes otherwise walk the index's bits.
func keyedVictims(w *victimWorld, label string, force bool) (func() *Handle, func()) {
	v := w.m.takeVictims(nil)
	v.force, v.decl = force, false
	v.collect(w.m.evictPolicy(), w.nextUse(label))
	v.resolveUses()
	v.order()
	if !force {
		w.m.waking = append(w.m.waking, v)
	}
	return v.next, func() { v.done(); w.m.putVictims(v) }
}

func oracleVictims(w *victimWorld, label string, force bool) (func() *Handle, func()) {
	ranked := oracleRank(w.m.evictPolicy(), w.nextUse(label), oracleCandidates(w.m))
	return func() *Handle {
		for len(ranked) > 0 {
			h := ranked[0]
			ranked = ranked[1:]
			if force || h.pendingUses == 0 {
				return h
			}
		}
		return nil
	}, func() {}
}

// play runs first pass A, a concurrent first pass B that starts once A
// has taken bAt victims (none if bAt < 0), taking victims from the two
// in turn, and then a forced pass; it returns the log.
func (w *victimWorld) play(src victimSource, bAt int) []string {
	type pass struct {
		label string
		next  func() *Handle
		end   func()
	}
	start := func(label string, force bool) *pass {
		p := &pass{label: label}
		p.next, p.end = src(w, label, force)
		return p
	}
	active := []*pass{start("A", false)}
	for took := 0; len(active) > 0; {
		if took == bAt {
			active = append(active, start("B", false))
			bAt = -1
		}
		p := active[took%len(active)]
		h := p.next()
		if h == nil {
			p.end()
			active = slices.DeleteFunc(active, func(q *pass) bool { return q == p })
			continue
		}
		w.take(p.label, h, false)
		took++
	}
	f := start("F", true)
	for h := f.next(); h != nil; h = f.next() {
		w.take("F", h, true)
	}
	f.end()
	return w.log
}

// TestVictimOrderMatchesSortOracle: over seeded manager states, every
// makeRoom pass takes from the dead index exactly the victims, in the
// order, that the sort oracle's walk takes, for every policy. The
// states tie lastUse and next uses, NoNextUse included. Between
// victims, as evict parks, pending uses rise and fall to zero, and
// pins, claims and residence change; Lookahead's first pending lookup
// changes them too, as its queue walk parks. Half the seeds run a
// second first pass concurrently with the first. DeclOrder is checked
// on its bit-set walk and on the keyed heap the other policies use.
func TestVictimOrderMatchesSortOracle(t *testing.T) {
	for _, pol := range EvictPolicies() {
		for seed := int64(1); seed <= 300; seed++ {
			bAt := -1
			if seed%2 == 0 {
				bAt = int(seed/2) % 4
			}
			want := newVictimWorld(t, pol, seed).play(oracleVictims, bAt)
			for name, src := range map[string]victimSource{"index": indexVictims, "keyed": keyedVictims} {
				got := newVictimWorld(t, pol, seed).play(src, bAt)
				if !slices.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s seed %d: the %s path diverges from the sort oracle at step %d:\n%s: %q\noracle: %q",
						pol.Name(), seed, name, i, name, got[i:min(i+5, len(got))], want[i:min(i+5, len(want))])
				}
			}
		}
	}
}

// TestFirstPassTakesBlockWhosePendingUsesEnd pins rule 1 on its own: a
// block with pending uses when the first pass ranks it is taken at its
// rank once its last pending use completes during an earlier eviction,
// and not if that happens after the pass has moved past it.
func TestFirstPassTakesBlockWhosePendingUsesEnd(t *testing.T) {
	for _, c := range []struct {
		name  string
		after string // the victim during whose eviction b's use ends
		want  string
	}{
		{"before its rank", "a", "abcd"},
		{"after its rank", "c", "acd"},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t, 2, DefaultOptions(MultiIO))
			hs := mkCands(env, []int{0, 1, 0, 0}, []float64{1, 2, 3, 4})
			v := env.mg.takeVictims(nil)
			v.rank(LRU, false, nil)
			var got string
			for h := v.next(); h != nil; h = v.next() {
				got += h.name
				if h.name == c.after {
					env.mg.useDone(hs[1], 9)
				}
			}
			v.done()
			if got != c.want {
				t.Fatalf("first pass took %q, want %q", got, c.want)
			}
			if len(env.mg.waking) != 0 {
				t.Fatalf("%d passes still registered for wake after done", len(env.mg.waking))
			}
		})
	}
}

// TestMakeRoomAllocatesNothing: once its storage exists, a makeRoom
// call ranks and selects without allocating.
func TestMakeRoomAllocatesNothing(t *testing.T) {
	for _, pol := range EvictPolicies() {
		w := newVictimWorld(t, pol, 7)
		v := w.m.takeVictims(nil)
		nextUse := func(h *Handle) int { return w.dist[h.id] }
		run := func() {
			v.rank(pol, false, nextUse)
			for v.next() != nil {
			}
			v.done()
		}
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%s: a pass made %.0f allocations, want 0", pol.Name(), n)
		}
	}
}

// TestLookaheadWalksOncePerPass pins rule 2 on the real queue walk: a
// pass walks the wait queues once, under their locks (virtual lock time
// passes), and only when a candidate has pending uses; each pass walks
// anew. A block's next use is its first consumer's queue position plus
// one, or 0 for a pending block no queue holds.
func TestLookaheadWalksOncePerPass(t *testing.T) {
	opts := DefaultOptions(NoIO)
	opts.EvictLazily = true
	opts.EvictPolicy = Lookahead
	env := newEnv(t, 2, opts)
	// b, c and e have pending uses; b's first consumer sits at position
	// 1 of both queues, c's at position 0, e's in none.
	hs := mkCands(env, []int{0, 1, 1, 0, 1}, []float64{0, 0, 0, 0, 0})
	qs := env.mg.strat.queues()
	qs[0].items.PushBack(&OOCTask{deps: []depRef{{h: hs[2]}}})
	qs[0].items.PushBack(&OOCTask{deps: []depRef{{h: hs[1]}}})
	qs[1].items.PushBack(&OOCTask{deps: []depRef{{h: hs[3]}}})
	qs[1].items.PushBack(&OOCTask{deps: []depRef{{h: hs[1]}}})
	type pass struct {
		order string
		walks uint64
		took  float64
	}
	var got []pass
	env.e.Spawn("ranker", func(p *sim.Proc) {
		v := env.mg.takeVictims(p)
		var walks uint64
		run := func(force bool) {
			start := p.Now()
			v.rank(Lookahead, force, nil)
			var order string
			for h := v.next(); h != nil; h = v.next() {
				order += h.name
			}
			v.done()
			got = append(got, pass{order, v.epoch - walks, float64(p.Now() - start)})
			walks = v.epoch
		}
		run(false)
		run(true)
		for _, h := range hs {
			h.pendingUses = 0
		}
		run(true)
		for _, q := range qs {
			for q.items.Len() > 0 {
				q.items.PopFront()
			}
		}
		env.mg.putVictims(v)
	})
	env.e.RunAll()
	lock := float64(env.rt.Params().LockCost)
	want := []pass{{"ad", 1, 2 * lock}, {"adbce", 1, 2 * lock}, {"abcde", 0, 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("passes %+v, want %+v", got, want)
	}
}
