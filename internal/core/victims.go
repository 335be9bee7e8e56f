package core

import (
	"math/bits"
	"slices"

	"github.com/hetmem/hetmem/internal/sim"
)

// RoomStats counts makeRoom's victim selection, the host cost of the
// evict step under capacity pressure.
type RoomStats struct {
	// Calls counts makeRoom calls: stagings that found HBM full.
	Calls int64
	// ForcedPasses counts calls that entered the forced second pass.
	ForcedPasses int64
	// Candidates counts the dead resident blocks ranked, summed over
	// passes.
	Candidates int64
	// Popped counts candidates handed out of the victim order: each was
	// evicted, or passed over by the first pass for a pending use.
	Popped int64
}

// RoomStats reports makeRoom's work so far.
func (m *Manager) RoomStats() RoomStats { return m.room }

// reindex files h in or out of the dead index after a change to its
// state, reference count or claims.
func (m *Manager) reindex(h *Handle) {
	w, bit := h.id>>6, uint64(1)<<(h.id&63)
	if h.state == InHBM && h.refs == 0 && h.claims == 0 {
		m.dead[w] |= bit
	} else {
		m.dead[w] &^= bit
	}
}

// setState moves h to state s.
func (m *Manager) setState(h *Handle, s BlockState) {
	h.state = s
	m.reindex(h)
}

// useDone balances one pending use of h, completed at now, stamping
// h's last use for the LRU policy. A block whose last pending use
// completes rejoins the order of every first pass under way.
func (m *Manager) useDone(h *Handle, now sim.Time) {
	if h.pendingUses == 0 {
		panic("core: pendingUses underflow on " + h.name)
	}
	h.pendingUses--
	h.lastUse = now
	m.aud.PendingUse(-1)
	if h.pendingUses == 0 {
		for _, v := range m.waking {
			v.wake(h)
		}
	}
}

// makeRoom evicts dead (resident, unreferenced) blocks until need bytes
// fit in the HBM budget, in the order the configured EvictPolicy ranks
// them. Under lazy eviction this is the memory pool's reclamation path;
// under eager eviction it is a liveness backstop for blocks stranded
// resident by aborted staging attempts. Reports whether enough space
// was freed.
//
// First pass: blocks no queued task needs. Second pass: any dead block,
// even one with pending uses — capacity beats affinity. Each pass ranks
// the blocks the dead index holds when it starts, because blocks change
// state while the first pass blocks on locks and migrations.
func (m *Manager) makeRoom(p *sim.Proc, lane int, need int64) bool {
	pol := m.evictPolicy()
	v := m.takeVictims(p)
	defer m.putVictims(v)
	m.room.Calls++
	for _, force := range [...]bool{false, true} {
		if force {
			m.room.ForcedPasses++
		}
		v.rank(pol, force, nil)
		for !m.hbmFits(need) {
			h := v.next()
			if h == nil {
				break
			}
			m.evict(p, lane, h, force)
		}
		v.done()
		if m.hbmFits(need) {
			return true
		}
	}
	return false
}

// takeVictims returns idle pass storage for process p. Several
// processes may be inside makeRoom at once, each parked in an eviction,
// so each pass owns its storage; after the first few calls none is
// allocated.
func (m *Manager) takeVictims(p *sim.Proc) *victims {
	var v *victims
	if n := len(m.spareVictims); n > 0 {
		v = m.spareVictims[n-1]
		m.spareVictims = m.spareVictims[:n-1]
	} else {
		v = &victims{m: m}
	}
	v.p = p
	return v
}

func (m *Manager) putVictims(v *victims) {
	v.p = nil
	m.spareVictims = append(m.spareVictims, v)
}

// Close drops the storage the manager keeps for eviction passes, one
// per pass that ever ran at once; kernels.Env.Close calls it when the
// run is over. Stats, snapshots and handles stay readable.
func (m *Manager) Close() { m.spareVictims = nil }

// victims is one makeRoom pass's victim order. rank reads the pass's
// candidates from the dead index and orders them; next hands them out
// lazily, best first, so a pass pays to order only the victims it
// takes. Declaration order is the index's own order: a DeclOrder pass
// walks bit sets of the index and keeps nothing per candidate, which
// matters because Multiple IO parks one pass per IO thread in an
// eviction at once. Any other policy keys the candidates and hands them
// out from a heap.
//
// Three rules keep the order the one a stable sort of every candidate
// by the policy's key gives, as the pass took before the index:
//  1. The first pass reads pending uses live. It leaves the candidates
//     that have pending uses when ranked out of its order (parked), and
//     wake returns one at its rank when its last pending use completes
//     before the order reaches it.
//  2. Next uses resolve in declaration order before any key is read,
//     so the queue walk behind them happens once per pass, on the first
//     candidate with pending uses, and may park the process there.
//  3. Keys, and the parking, read the values left after that walk.
type victims struct {
	m     *Manager
	p     *sim.Proc
	force bool
	decl  bool // the pass walks declaration order

	// A DeclOrder pass: bit sets by handle id of the candidates without
	// (free) and with (held) pending uses when ranked, and of the held
	// ones woken back into the first pass. The pass walks free, then
	// held (forced) or woken (first pass); at is the last id handed out
	// and inHeld marks the second stretch.
	free, held, woken []uint64
	at                int
	inHeld            bool

	*keyed // made by the first keyed pass
}

// keyed is the storage of a pass that keys its candidates.
type keyed struct {
	cands  []*Handle   // the pass's candidates, in declaration order
	uses   []int       // cands[i]'s next use, when the policy looks ahead
	keys   []VictimKey // cands[i]'s rank
	parked []bool      // cands[i] is out of the heap for a pending use
	heap   []int32     // candidates not yet handed out, a min-heap on less
	last   int32       // the candidate handed out last; -1 before any

	// The queue walk behind nextUse: dist[id] is the queue position of
	// handle id's first consumer when seen[id] == epoch.
	walked bool
	epoch  uint64
	dist   []int
	seen   []uint64
	visit  func(pos int, ot *OOCTask) // note, bound once
	lookup func(h *Handle) int        // nextUse, bound once
}

// rank collects the candidates and orders them under pol, taking next
// uses, when pol looks ahead, from nextUse, or from a walk of the wait
// queues when nextUse is nil. Unless force is set, it parks the
// candidates with pending uses and then registers the pass for wake: a
// use completing during the queue walk changes nothing the parking has
// yet to read.
func (v *victims) rank(pol EvictPolicy, force bool, nextUse func(*Handle) int) {
	v.force, v.decl = force, pol == DeclOrder
	if v.decl {
		v.rankDecl()
	} else {
		v.rankKeyed(pol, nextUse)
	}
	if !force {
		v.m.waking = append(v.m.waking, v)
	}
}

// rankKeyed keys the candidates and heaps the ones the pass may take.
func (v *victims) rankKeyed(pol EvictPolicy, nextUse func(*Handle) int) {
	m := v.m
	if v.keyed == nil {
		v.keyed = &keyed{}
		v.visit, v.lookup = v.note, v.nextUse
	}
	if nextUse == nil {
		nextUse = v.lookup
	}
	v.walked, v.last = false, -1
	v.cands = v.cands[:0]
	for w, word := range m.dead {
		for ; word != 0; word &= word - 1 {
			v.cands = append(v.cands, m.handles[w<<6|bits.TrailingZeros64(word)])
		}
	}
	n := len(v.cands)
	m.room.Candidates += int64(n)
	look := pol.LooksAhead()
	if look {
		v.uses = slices.Grow(v.uses[:0], n)[:n]
		for i, h := range v.cands {
			v.uses[i] = nextUse(h)
		}
	}
	v.keys = slices.Grow(v.keys[:0], n)[:n]
	v.parked = slices.Grow(v.parked[:0], n)[:n]
	v.heap = v.heap[:0]
	for i, h := range v.cands {
		use := NoNextUse
		if look {
			use = v.uses[i]
		}
		v.keys[i] = pol.Key(h, use)
		v.parked[i] = !v.force && h.pendingUses > 0
		if !v.parked[i] {
			v.heap = append(v.heap, int32(i))
		}
	}
	for i := len(v.heap)/2 - 1; i >= 0; i-- {
		v.down(i)
	}
}

// rankDecl splits the dead index into the free and held sets.
func (v *victims) rankDecl() {
	m := v.m
	n := len(m.dead)
	v.free = slices.Grow(v.free[:0], n)[:n]
	v.held = slices.Grow(v.held[:0], n)[:n]
	v.woken = slices.Grow(v.woken[:0], n)[:n]
	clear(v.woken)
	for w, word := range m.dead {
		var held uint64
		m.room.Candidates += int64(bits.OnesCount64(word))
		for rest := word; rest != 0; rest &= rest - 1 {
			if i := bits.TrailingZeros64(rest); m.handles[w<<6|i].pendingUses > 0 {
				held |= 1 << i
			}
		}
		v.free[w], v.held[w] = word&^held, held
	}
	v.at, v.inHeld = -1, false
}

// next hands out the best victim left, or nil when none is. The first
// pass passes over a candidate with pending uses, read live: it may
// have gained one since the ranking.
func (v *victims) next() *Handle {
	for {
		var h *Handle
		if v.decl {
			h = v.nextDecl()
		} else if len(v.heap) > 0 {
			i := v.pop()
			v.last = i
			h = v.cands[i]
		}
		if h == nil {
			return nil
		}
		v.m.room.Popped++
		if v.force || h.pendingUses == 0 {
			return h
		}
	}
}

// nextDecl takes the next candidate of a DeclOrder pass: the free set
// in declaration order, then the held set (forced) or the woken one.
func (v *victims) nextDecl() *Handle {
	for {
		set := v.free
		if v.inHeld {
			set = v.woken
			if v.force {
				set = v.held
			}
		}
		if id := nextBit(set, v.at+1); id >= 0 {
			v.at = id
			return v.m.handles[id]
		}
		if v.inHeld {
			return nil
		}
		v.at, v.inHeld = -1, true
	}
}

// nextBit returns the lowest id at or above from in set, or -1.
func nextBit(set []uint64, from int) int {
	w := from >> 6
	if w >= len(set) {
		return -1
	}
	for word := set[w] &^ (1<<(from&63) - 1); ; word = set[w] {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
		if w++; w == len(set) {
			return -1
		}
	}
}

// wake tells a first pass that h's last pending use completed. If h is
// a parked candidate the order has not yet passed, it rejoins the order
// at its rank, where a pass reading every candidate's pending uses live
// would have taken it.
func (v *victims) wake(h *Handle) {
	if v.decl {
		// Held blocks rank after every free one, in declaration order,
		// and the walk only moves forward, so one the walk has passed
		// stays passed.
		if w := h.id >> 6; w < len(v.held) {
			v.woken[w] |= v.held[w] & (1 << (h.id & 63))
		}
		return
	}
	i, ok := slices.BinarySearchFunc(v.cands, h.id, func(c *Handle, id int) int { return c.id - id })
	if !ok || !v.parked[i] {
		return
	}
	v.parked[i] = false
	if v.last < 0 || v.less(v.last, int32(i)) {
		v.push(int32(i))
	}
}

// done ends the pass.
func (v *victims) done() {
	if !v.force {
		i := slices.Index(v.m.waking, v)
		v.m.waking = slices.Delete(v.m.waking, i, i+1)
	}
}

// nextUse reports how soon h is needed again by declared dependences
// (see EvictPolicy.LooksAhead), walking the wait queues on the pass's
// first block with pending uses.
func (v *victims) nextUse(h *Handle) int {
	if h.pendingUses == 0 {
		return NoNextUse
	}
	if !v.walked {
		v.walk()
		v.walked = true
	}
	if v.seen[h.id] == v.epoch {
		return v.dist[h.id] + 1
	}
	// Pending but not in any wait queue: its consumer is created or
	// already staged — imminent.
	return 0
}

// walk records, for every handle some wait-queued task depends on, the
// queue position of its first consumer (minimum across queues). It
// walks each wait queue under its lock; no strategy holds a queue lock
// while staging, so a staging process may take them here.
func (v *victims) walk() {
	v.epoch++
	if n := len(v.m.handles); len(v.dist) < n {
		v.dist = append(v.dist, make([]int, n-len(v.dist))...)
		v.seen = append(v.seen, make([]uint64, n-len(v.seen))...)
	}
	if v.m.strat != nil {
		v.m.strat.queues().scanWaiting(v.p, v.visit)
	}
}

func (v *victims) note(pos int, ot *OOCTask) {
	for _, d := range ot.deps {
		id := d.h.id
		if v.seen[id] != v.epoch || pos < v.dist[id] {
			v.seen[id] = v.epoch
			v.dist[id] = pos
		}
	}
}

// less orders candidates a and b by key, then declaration order.
func (v *victims) less(a, b int32) bool {
	ka, kb := v.keys[a], v.keys[b]
	if ka.Major != kb.Major {
		return ka.Major < kb.Major
	}
	if ka.Minor != kb.Minor {
		return ka.Minor < kb.Minor
	}
	return a < b
}

func (v *victims) push(i int32) {
	v.heap = append(v.heap, i)
	h := v.heap
	for j := len(h) - 1; j > 0; {
		up := (j - 1) / 2
		if !v.less(h[j], h[up]) {
			break
		}
		h[j], h[up] = h[up], h[j]
		j = up
	}
}

func (v *victims) pop() int32 {
	h := v.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	v.heap = h[:n]
	v.down(0)
	return top
}

func (v *victims) down(j int) {
	h := v.heap
	for {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && v.less(h[r], h[c]) {
			c = r
		}
		if !v.less(h[c], h[j]) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}
