package memsim

import (
	"fmt"
	"math"
	"slices"

	"github.com/hetmem/hetmem/internal/sim"
)

// Access selects which bandwidth direction of a node a flow consumes.
type Access int

const (
	// Read consumes a node's read bandwidth.
	Read Access = iota
	// Write consumes a node's write bandwidth.
	Write
)

// Demand names one (node, direction) bandwidth resource.
type Demand struct {
	Node   *Node
	Access Access
}

// resources returns the bandwidth pools a demand drains: its direction
// pool plus the node's shared bus. A flow reading and writing the same
// node therefore consumes bus capacity twice per byte-rate, as a real
// same-node memcpy does.
func (d Demand) resources() [2]*resource {
	if d.Access == Read {
		return [2]*resource{&d.Node.read, &d.Node.total}
	}
	return [2]*resource{&d.Node.write, &d.Node.total}
}

// Flow is an in-flight byte stream. All of its demands are consumed at
// the flow's single current rate, its class's rate.
type Flow struct {
	sys       *System
	class     *flowClass // nil for flows that complete on start
	remaining float64    // bytes
	started   sim.Time
	finished  sim.Time
	done      bool
	waiter    *sim.Proc   // the first waiter; most flows have at most one
	waiters   []*sim.Proc // waiters after the first
	then      func()      // the Then callback; kept once scheduled, so a second Then panics
}

// flowClass is the set of live flows with an identical demand list (in
// order) and an identical cap. Max-min filling treats its members
// identically, so the allocator fills classes rather than flows.
type flowClass struct {
	demands []Demand
	cap     float64 // bytes/second; +Inf when uncapped
	// resources flattens every demand's pools, duplicates included, so
	// a same-node copy counts the bus twice.
	resources []*resource
	n         int // live member flows
	rate      float64
	// minRem is the smallest remaining volume among the members that
	// have not drained: the member that completes first.
	minRem float64
	frozen bool // allocator scratch
}

// classFor returns the live class for demands and cap, creating it at
// the end of s.classes when none matches, from an emptied class when
// one is idle.
func (s *System) classFor(demands []Demand, cap float64) *flowClass {
	for _, c := range s.classes {
		if c.cap == cap && slices.Equal(c.demands, demands) {
			return c
		}
	}
	var c *flowClass
	if n := len(s.idleClasses); n > 0 {
		c = s.idleClasses[n-1]
		s.idleClasses[n-1] = nil
		s.idleClasses = s.idleClasses[:n-1]
	} else {
		c = &flowClass{}
	}
	c.demands = append(c.demands[:0], demands...)
	c.cap, c.rate, c.frozen, c.minRem = cap, 0, false, math.Inf(1)
	c.resources = c.resources[:0]
	for _, d := range c.demands {
		r := d.resources()
		c.resources = append(c.resources, r[0], r[1])
	}
	s.classes = append(s.classes, c)
	return c
}

// FlowSpec describes a flow to start.
type FlowSpec struct {
	// Bytes is the volume to move. Zero-byte flows complete
	// immediately.
	Bytes float64
	// Demands lists every bandwidth resource the flow occupies
	// simultaneously (e.g. source read + destination write for a
	// migration memcpy).
	Demands []Demand
	// RateCap bounds the flow's rate in bytes/second; <= 0 means
	// uncapped. Use the per-core streaming rate for kernel flows.
	RateCap float64
}

const byteEps = 1e-3 // bytes below which a flow counts as complete

// StartFlow begins a flow and returns it. The caller can Wait on it or
// register a callback with Then.
func (s *System) StartFlow(spec FlowSpec) *Flow {
	if spec.Bytes < 0 {
		panic("memsim: negative flow size")
	}
	// A flow of +Inf or NaN bytes would never complete: its completion
	// event lands past sim.Infinity, so the engine drains with the flow
	// still active and no stall is ever reported.
	if math.IsInf(spec.Bytes, 1) || math.IsNaN(spec.Bytes) {
		panic(fmt.Sprintf("memsim: non-finite flow size %g", spec.Bytes))
	}
	if math.IsNaN(spec.RateCap) {
		panic("memsim: NaN flow rate cap")
	}
	if len(spec.Demands) == 0 {
		panic("memsim: flow with no demands")
	}
	for _, d := range spec.Demands {
		if d.Node == nil {
			panic("memsim: flow demand with nil node")
		}
	}
	f := &Flow{
		sys:       s,
		remaining: spec.Bytes,
		started:   s.e.Now(),
	}
	if spec.Bytes <= byteEps {
		// Trivially complete.
		f.done = true
		f.finished = s.e.Now()
		return f
	}
	rateCap := spec.RateCap
	if rateCap <= 0 {
		rateCap = math.Inf(1)
	}
	s.advance()
	f.class = s.classFor(spec.Demands, rateCap)
	f.class.n++
	if spec.Bytes < f.class.minRem {
		f.class.minRem = spec.Bytes
	}
	s.flows = append(s.flows, f)
	s.stats.Starts++
	s.change()
	return f
}

// Wait parks p until the flow completes and returns its duration.
func (f *Flow) Wait(p *sim.Proc) sim.Time {
	for !f.done {
		if f.waiter == nil {
			f.waiter = p
		} else {
			f.waiters = append(f.waiters, p)
		}
		p.Suspend()
	}
	return f.finished - f.started
}

// Then registers fn to run as an engine callback once the flow
// completes: scheduled at the completion instant, after the waiters'
// wakes. On a flow that is already done it schedules fn at now, so a
// zero-byte flow's callback still runs asynchronously, as a real flow's
// does. A flow takes at most one Then; a second one panics.
func (f *Flow) Then(fn func()) {
	if f.then != nil {
		panic("memsim: second Then on a flow")
	}
	f.then = fn
	if f.done {
		f.sys.e.Schedule(f.sys.e.Now(), fn)
	}
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Rate returns the flow's current granted rate in bytes/second, zero
// once it is done. Rates are filled at the end of the instant that
// changed the flow set; read before then, Rate fills them first.
func (f *Flow) Rate() float64 {
	if f.done {
		return 0
	}
	if f.sys.stale {
		f.sys.fill()
	}
	return f.class.rate
}

// Remaining returns the bytes left to move (advanced to current time).
func (f *Flow) Remaining() float64 {
	f.sys.advance()
	return f.remaining
}

// Duration returns how long the flow ran; valid only after completion.
func (f *Flow) Duration() sim.Time {
	if !f.done {
		panic("memsim: Duration of unfinished flow")
	}
	return f.finished - f.started
}

// advance integrates all flow progress from lastUpdate to now. It also
// records each class's smallest remaining volume among the members that
// have not drained, and whether any member drained.
func (s *System) advance() {
	now := s.e.Now()
	dt := now - s.lastUpdate
	if dt <= 0 {
		s.lastUpdate = now
		return
	}
	for _, c := range s.classes {
		c.minRem = math.Inf(1)
	}
	for _, f := range s.flows {
		c := f.class
		moved := c.rate * dt
		f.remaining -= moved
		if f.remaining < 0 {
			moved += f.remaining
			f.remaining = 0
		}
		if f.remaining <= byteEps {
			s.drained = true
		} else if f.remaining < c.minRem {
			c.minRem = f.remaining
		}
		for _, d := range c.demands {
			if d.Access == Read {
				d.Node.BytesRead += moved
			} else {
				d.Node.BytesWritten += moved
			}
		}
	}
	s.lastUpdate = now
}

// change records a flow start or a completion event, after advance: it
// retires the flows that have drained, drops the pending completion
// event and, while flows remain, reserves the sequence slot of its
// replacement and queues one fill for the end of the instant. Only the
// instant's last change keeps its slot, so the completion event the
// fill schedules fires exactly where an eager fill at that change would
// have put it.
func (s *System) change() {
	if s.drained {
		s.retire()
	}
	s.completion.Cancel()
	s.completion = sim.EventHandle{}
	if len(s.flows) == 0 {
		s.stale = false
		return
	}
	s.completionSeq = s.e.ReserveSeq()
	s.stale = true
	if !s.fillQueued {
		s.fillQueued = true
		s.e.AtInstantEnd(s.onInstantEnd)
	}
}

// retire completes the drained flows in start order, preserving the
// order of the rest, and moves emptied classes to the idle list.
func (s *System) retire() {
	s.drained = false
	live := s.flows[:0]
	for _, f := range s.flows {
		if f.remaining <= byteEps {
			f.class.n--
			s.finish(f)
		} else {
			live = append(live, f)
		}
	}
	clear(s.flows[len(live):])
	s.flows = live
	classes := s.classes[:0]
	for _, c := range s.classes {
		if c.n > 0 {
			classes = append(classes, c)
		} else {
			s.idleClasses = append(s.idleClasses, c)
		}
	}
	clear(s.classes[len(classes):])
	s.classes = classes
}

// fill recomputes max-min fair rates for all flows (progressive
// filling) and schedules the next completion event in the slot the
// instant's last change reserved.
//
// Filling runs over flow classes, not flows. Members of a class share
// their rate, cap and resource multiset, so in every round they would
// get the same increment and the same saturation verdict; filling the
// class once performs exactly the float operations per-flow filling
// would. Each resource subtracts a round's increment once per unfrozen
// user, as repeated subtraction rather than one multiply, so its
// remaining capacity is bit-for-bit what per-flow filling computes.
func (s *System) fill() {
	s.stale = false
	s.stats.Fills++
	s.stats.FillFlows += int64(len(s.flows))

	// Gather the distinct resources in first-use order, counting every
	// live flow's use.
	resources := s.resources[:0]
	for _, c := range s.classes {
		c.rate = 0
		c.frozen = false
		for _, r := range c.resources {
			if !r.seen {
				r.seen = true
				r.remCap = r.capacity
				r.users = 0
				resources = append(resources, r)
			}
			r.users += c.n
		}
	}
	for _, r := range resources {
		r.seen = false
	}
	s.resources = resources

	// Progressive filling: raise all unfrozen classes' rates together
	// until each hits its cap or saturates one of its resources.
	unfrozen := len(s.classes)
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, r := range resources {
			if r.users > 0 {
				if v := r.remCap / float64(r.users); v < inc {
					inc = v
				}
			}
		}
		for _, c := range s.classes {
			if !c.frozen {
				if v := c.cap - c.rate; v < inc {
					inc = v
				}
			}
		}
		if inc < 0 {
			inc = 0
		}
		for _, c := range s.classes {
			if !c.frozen {
				c.rate += inc
			}
		}
		for _, r := range resources {
			// One subtraction per user, never inc*users: the
			// multiply rounds differently from per-flow filling.
			remCap := r.remCap
			for i := 0; i < r.users; i++ {
				remCap -= inc
			}
			r.remCap = remCap
		}
		progressed := false
		for _, c := range s.classes {
			if c.frozen {
				continue
			}
			saturated := c.rate >= c.cap-1e-9*c.cap
			if !saturated {
				for _, r := range c.resources {
					if r.remCap <= 1e-9*r.capacity {
						saturated = true
						break
					}
				}
			}
			if saturated {
				c.frozen = true
				unfrozen--
				progressed = true
				for _, r := range c.resources {
					r.users -= c.n
				}
			}
		}
		if !progressed {
			panic("memsim: progressive filling failed to converge")
		}
	}

	// The next completion is the class whose smallest member runs out
	// first. Dividing by a positive rate is monotone under rounding, so
	// this is the per-flow minimum of remaining/rate bit for bit.
	next := math.Inf(1)
	for _, c := range s.classes {
		if c.rate <= 0 {
			panic(fmt.Sprintf("memsim: flow starved (rate 0, %g bytes left)", c.minRem))
		}
		if t := c.minRem / c.rate; t < next {
			next = t
		}
	}
	now := s.e.Now()
	at := now + next
	if at == now {
		// The delay rounds away at this clock value: completing now
		// would move no bytes and reschedule itself forever. One ulp
		// later the flow's residual, at most rate·ulp/2, drains.
		at = math.Nextafter(now, math.Inf(1))
	}
	s.completion = s.e.ScheduleReserved(at, s.completionSeq, s.onCompletion)
}

// finish marks f complete and releases its waiters.
func (s *System) finish(f *Flow) {
	f.done = true
	f.remaining = 0
	f.finished = s.e.Now()
	if f.waiter != nil {
		f.waiter.Resume()
		f.waiter = nil
	}
	for _, w := range f.waiters {
		w.Resume()
	}
	f.waiters = nil
	if f.then != nil {
		s.e.Schedule(s.e.Now(), f.then)
	}
}

// Transfer moves bytes from src to dst as a blocking memcpy-style flow,
// consuming src read bandwidth and dst write bandwidth simultaneously
// (plus both nodes' fixed latency once up front). It returns the elapsed
// virtual time. This is the data-movement primitive behind the paper's
// numa_alloc_onnode + memcpy + numa_free migration routine.
func (s *System) Transfer(p *sim.Proc, bytes float64, src, dst *Node, rateCap float64) sim.Time {
	t0 := s.e.Now()
	if lat := src.Latency + dst.Latency; lat > 0 {
		p.Sleep(lat)
	}
	f := s.StartFlow(FlowSpec{
		Bytes:   bytes,
		Demands: []Demand{{Node: src, Access: Read}, {Node: dst, Access: Write}},
		RateCap: rateCap,
	})
	f.Wait(p)
	return s.e.Now() - t0
}

// ReadStream streams bytes from node as a blocking flow consuming read
// bandwidth only (a load-dominated kernel).
func (s *System) ReadStream(p *sim.Proc, bytes float64, node *Node, rateCap float64) sim.Time {
	t0 := s.e.Now()
	f := s.StartFlow(FlowSpec{
		Bytes:   bytes,
		Demands: []Demand{{Node: node, Access: Read}},
		RateCap: rateCap,
	})
	f.Wait(p)
	return s.e.Now() - t0
}
