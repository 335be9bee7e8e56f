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

// roomPass is a makeRoom call in progress, as a stage of a
// sim.Proc.Drive step. makeRoom evicts dead (resident, unreferenced)
// blocks until need bytes fit in the HBM budget, in the order the
// configured EvictPolicy ranks them. Under lazy eviction this is the
// memory pool's reclamation path; under eager eviction it is a liveness
// backstop for blocks stranded resident by aborted staging attempts. ok
// reports whether enough space was freed.
//
// First pass: blocks no queued task needs. Second pass: any dead block,
// even one with pending uses — capacity beats affinity. Each pass ranks
// the blocks the dead index holds when it starts, because blocks change
// state while the first pass waits on locks and migrations.
type roomPass struct {
	at    roomStage
	v     *victims
	pol   EvictPolicy
	need  int64
	lane  int
	force bool
	ok    bool
}

// roomStage is where a roomPass is in its sequence.
type roomStage uint8

const (
	roomRank  roomStage = iota // rank the pass's candidates
	roomPick                   // pick the next victim, or end the pass
	roomEvict                  // evict the victim
)

// startRoom sets w's makeRoom call going for need bytes on lane.
func (w *mover) startRoom(lane int, need int64) {
	m := w.m
	r := &w.room
	*r = roomPass{pol: m.evictPolicy(), v: m.takeVictims(w.p), need: need, lane: lane}
	m.room.Calls++
	r.v.startRank(r.pol, false, nil)
}

// roomStep runs w's makeRoom call until w's process must park, and
// reports false, or until it is over, and reports true with room.ok
// set.
func (w *mover) roomStep() bool {
	m, r := w.m, &w.room
	for {
		switch r.at {
		case roomRank:
			if !r.v.rankStep() {
				return false
			}
			r.at = roomPick
		case roomPick:
			if !m.hbmFits(r.need) {
				if h := r.v.next(); h != nil {
					w.startEvict(r.lane, h, r.force)
					r.at = roomEvict
					continue
				}
			}
			r.v.done()
			if r.ok = m.hbmFits(r.need); r.ok || r.force {
				m.putVictims(r.v)
				r.v = nil
				return true
			}
			r.force = true
			m.room.ForcedPasses++
			r.v.startRank(r.pol, true, nil)
			r.at = roomRank
		case roomEvict:
			if !w.moveStep() {
				return false
			}
			r.at = roomPick
		}
	}
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

// victims is one makeRoom pass's victim order. startRank and rankStep
// read the pass's candidates from the dead index and order them; next
// hands them out lazily, best first, so a pass pays to order only the
// victims it takes. Declaration order is the index's own order: a
// DeclOrder pass walks bit sets of the index and keeps nothing per
// candidate, which matters because Multiple IO parks one pass per IO
// thread in an eviction at once. Any other policy keys the candidates
// and hands them out from a heap.
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

	// The ranking under way: its policy, the candidate whose next use
	// is taken next, and the source of next uses, the queue walk when
	// nextUseFn is nil.
	pol       EvictPolicy
	ui        int
	nextUseFn func(*Handle) int

	// The queue walk: dist[id] is the queue position of handle id's
	// first consumer when seen[id] == epoch. walking is set while the
	// walk, a scan over the wait queues walkQs, is under way.
	walked, walking bool
	epoch           uint64
	dist            []int
	seen            []uint64
	walk            sim.Scan
	walkQs          taskQueues
	walkLock        func(i int) *sim.Mutex // queueLock, bound once
	walkVisit       func(i int) bool       // noteQueue, bound once
}

// startRank begins a ranking of the pass's candidates under pol: it
// collects them, and rankStep orders them, taking next uses, when pol
// looks ahead, from nextUse, or from a walk of the wait queues when
// nextUse is nil. Unless force is set, rankStep parks the candidates
// with pending uses and then registers the pass for wake: a use
// completing during the queue walk changes nothing the parking has yet
// to read.
func (v *victims) startRank(pol EvictPolicy, force bool, nextUse func(*Handle) int) {
	v.force, v.decl = force, pol == DeclOrder
	if v.decl {
		v.rankDecl()
		return
	}
	v.collect(pol, nextUse)
}

// rankStep finishes the ranking for v's process: it reports false while
// the process must park in the queue walk, and true once the pass is
// ordered and registered.
func (v *victims) rankStep() bool {
	if !v.decl {
		if !v.resolveUses() {
			return false
		}
		v.order()
	}
	if !v.force {
		v.m.waking = append(v.m.waking, v)
	}
	return true
}

// collect reads a keyed pass's candidates from the dead index.
func (v *victims) collect(pol EvictPolicy, nextUse func(*Handle) int) {
	m := v.m
	if v.keyed == nil {
		v.keyed = &keyed{}
		v.walkLock, v.walkVisit = v.queueLock, v.noteQueue
	}
	v.pol, v.nextUseFn = pol, nextUse
	v.walked, v.walking, v.last = false, false, -1
	v.cands = v.cands[:0]
	for w, word := range m.dead {
		for ; word != 0; word &= word - 1 {
			v.cands = append(v.cands, m.handles[w<<6|bits.TrailingZeros64(word)])
		}
	}
	n := len(v.cands)
	m.room.Candidates += int64(n)
	v.ui = 0
	if pol.LooksAhead() {
		v.uses = slices.Grow(v.uses[:0], n)[:n]
	} else {
		v.ui = n
	}
}

// resolveUses takes each candidate's next use in declaration order,
// from nextUseFn or, when that is nil, from the queue walk, which runs
// on the first candidate with pending uses. It reports false while the
// walk must park for a queue lock.
func (v *victims) resolveUses() bool {
	for ; v.ui < len(v.cands); v.ui++ {
		h := v.cands[v.ui]
		if v.nextUseFn != nil {
			v.uses[v.ui] = v.nextUseFn(h)
			continue
		}
		if h.pendingUses == 0 {
			v.uses[v.ui] = NoNextUse
			continue
		}
		if !v.walked {
			if !v.walking {
				v.startWalk()
				v.walking = true
			}
			if !v.walk.Step(v.p) {
				return false
			}
			v.walking, v.walked = false, true
		}
		v.uses[v.ui] = v.walkedUse(h)
	}
	return true
}

// order keys the candidates and heaps the ones the pass may take.
func (v *victims) order() {
	look := v.pol.LooksAhead()
	n := len(v.cands)
	v.keys = slices.Grow(v.keys[:0], n)[:n]
	v.parked = slices.Grow(v.parked[:0], n)[:n]
	v.heap = v.heap[:0]
	for i, h := range v.cands {
		use := NoNextUse
		if look {
			use = v.uses[i]
		}
		v.keys[i] = v.pol.Key(h, use)
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

// walkedUse reports how soon h, which had pending uses before the
// queue walk, is needed again by declared dependences (see
// EvictPolicy.LooksAhead): its first consumer's queue position plus
// one.
func (v *victims) walkedUse(h *Handle) int {
	if v.seen[h.id] == v.epoch {
		return v.dist[h.id] + 1
	}
	// Pending but not in any wait queue: its consumer is created or
	// already staged — imminent.
	return 0
}

// startWalk sets up the queue walk that records, for every handle some
// wait-queued task depends on, the queue position of its first consumer
// (minimum across queues). The walk is a sim.Scan that takes each wait
// queue's lock in turn and notes its tasks under it; no strategy holds
// a queue lock while staging, so a staging process may take them here.
func (v *victims) startWalk() {
	v.epoch++
	if n := len(v.m.handles); len(v.dist) < n {
		v.dist = append(v.dist, make([]int, n-len(v.dist))...)
		v.seen = append(v.seen, make([]uint64, n-len(v.seen))...)
	}
	v.walkQs = nil
	if v.m.strat != nil {
		v.walkQs = v.m.strat.queues()
	}
	v.walk.Start(0, len(v.walkQs), v.walkLock, v.walkVisit)
}

// queueLock is the walk's lock of wait queue i.
func (v *victims) queueLock(i int) *sim.Mutex { return &v.walkQs[i].mu }

// noteQueue notes every task in wait queue i, whose lock the walk
// holds, and passes on to the next queue.
func (v *victims) noteQueue(i int) bool {
	wq := v.walkQs[i]
	for pos := 0; pos < wq.items.Len(); pos++ {
		for _, d := range wq.items.At(pos).deps {
			id := d.h.id
			if v.seen[id] != v.epoch || pos < v.dist[id] {
				v.seen[id] = v.epoch
				v.dist[id] = pos
			}
		}
	}
	return false
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
