package memsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/hetmem/hetmem/internal/sim"
)

// flowPlan is a randomly generated workload for the bandwidth
// allocator.
type flowPlan struct {
	flows []plannedFlow
}

type plannedFlow struct {
	start      sim.Time
	bytes      float64
	cap        float64
	src        int  // node index
	dst        int  // -1 = read-only stream
	writeFirst bool // list the dst write demand before the src read
}

// demands returns the flow's demand list on s.
func (pf plannedFlow) demands(s *System) []Demand {
	read := Demand{Node: s.Node(pf.src), Access: Read}
	if pf.dst < 0 {
		return []Demand{read}
	}
	write := Demand{Node: s.Node(pf.dst), Access: Write}
	if pf.writeFirst {
		return []Demand{write, read}
	}
	return []Demand{read, write}
}

// planSystem builds the two-node KNL memory system the plans run on:
// DDR4 node 0 and MCDRAM node 1.
func planSystem(e *sim.Engine) *System {
	return NewSystem(e, []NodeSpec{
		{Name: "DDR", Kind: DDR, Cap: 1 << 40, ReadBW: 95 * float64(1<<30), WriteBW: 80 * float64(1<<30), TotalBW: 90 * float64(1<<30)},
		{Name: "HBM", Kind: HBM, Cap: 1 << 40, ReadBW: 450 * float64(1<<30), WriteBW: 385 * float64(1<<30), TotalBW: 465 * float64(1<<30)},
	})
}

// Generate implements quick.Generator: a plan whose starts spread over
// one second.
func (flowPlan) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(randomPlan(r, 1, 0))
}

// burstPlan is a flowPlan whose flows start on four instants, so that
// several flows often start in one instant.
type burstPlan struct{ flowPlan }

// Generate implements quick.Generator.
func (burstPlan) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(burstPlan{randomPlan(r, 1, 4)})
}

// randomPlan draws 1 to 24 flows starting in [0, span), on that many
// evenly spaced instants when instants > 0. Caps are drawn so that
// flows often share one (kernel flows at a common per-core rate) and
// often differ slightly (serve's fair lanes re-dividing the memcpy rate
// every window); starts are spread so that classes empty out and recur.
func randomPlan(r *rand.Rand, span sim.Time, instants int) flowPlan {
	n := 1 + r.Intn(24)
	p := flowPlan{}
	for i := 0; i < n; i++ {
		start := span * r.Float64()
		if instants > 0 {
			start = span * sim.Time(r.Intn(instants)) / sim.Time(instants)
		}
		f := plannedFlow{
			start: start,
			bytes: float64(1+r.Intn(64)) * float64(1<<26), // 64MB..4GB
			cap:   0,
			src:   r.Intn(2),
			dst:   -1,
		}
		switch r.Intn(4) {
		case 1:
			f.cap = []float64{8, 11}[r.Intn(2)] * float64(1<<30)
		case 2:
			f.cap = float64(1+r.Intn(16)) * float64(1<<30) // 1..16 GB/s
		case 3:
			f.cap = 8 * float64(1<<30) * float64(1+r.Intn(7)) / float64(1+r.Intn(9))
		}
		if r.Intn(2) == 0 {
			f.dst = r.Intn(2)
			f.writeFirst = r.Intn(2) == 0
		}
		p.flows = append(p.flows, f)
	}
	return p
}

// TestQuickFlowInvariants drives random flow mixes through the
// max-min allocator and checks the physical invariants:
//
//  1. every flow completes;
//  2. no flow beats its own best-case time (its cap, or the tightest
//     resource it uses alone);
//  3. per-node byte accounting matches the flow volumes exactly.
func TestQuickFlowInvariants(t *testing.T) {
	check := func(plan flowPlan) bool {
		e := sim.NewEngine(99)
		s := planSystem(e)
		type outcome struct {
			dur   sim.Time
			lower sim.Time
		}
		outcomes := make([]outcome, len(plan.flows))
		var wantRead, wantWrite [2]float64
		for i, pf := range plan.flows {
			i, pf := i, pf
			src := s.Node(pf.src)
			// Best case: alone on every resource.
			best := 0.0
			demands := pf.demands(s)
			rate := math.Min(src.ReadBW(), src.TotalBW())
			wantRead[pf.src] += pf.bytes
			if pf.dst >= 0 {
				dst := s.Node(pf.dst)
				rate = math.Min(rate, math.Min(dst.WriteBW(), dst.TotalBW()))
				if pf.dst == pf.src {
					// Same-node copy crosses the bus twice.
					rate = math.Min(rate, src.TotalBW()/2)
				}
				wantWrite[pf.dst] += pf.bytes
			}
			if pf.cap > 0 {
				rate = math.Min(rate, pf.cap)
			}
			best = pf.bytes / rate
			outcomes[i].lower = sim.Time(best)
			e.Schedule(pf.start, func() {
				f := s.StartFlow(FlowSpec{Bytes: pf.bytes, Demands: demands, RateCap: pf.cap})
				start := e.Now()
				e.Spawn("w", func(p *sim.Proc) {
					f.Wait(p)
					outcomes[i].dur = p.Now() - start
				})
			})
		}
		e.RunAll()
		defer e.Close()
		if s.ActiveFlows() != 0 {
			return false
		}
		for _, o := range outcomes {
			if o.dur <= 0 {
				return false // did not complete
			}
			if o.dur < o.lower*(1-1e-9) {
				return false // faster than physics allows
			}
		}
		for n := 0; n < 2; n++ {
			if math.Abs(s.Node(n).BytesRead-wantRead[n]) > 1 {
				return false
			}
			if math.Abs(s.Node(n).BytesWritten-wantWrite[n]) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReserveRelease checks capacity accounting over random
// alloc/free sequences: usage is always within [0, Cap] and returns to
// zero.
func TestQuickReserveRelease(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(1)
		s := NewSystem(e, []NodeSpec{
			{Name: "N", Kind: HBM, Cap: 16 << 30, ReadBW: 1, WriteBW: 1},
		})
		n := s.Node(0)
		var live []int64
		for i := 0; i < 200; i++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				sz := int64(1+r.Intn(1<<20)) * 512
				if n.Reserve(sz) {
					live = append(live, sz)
				} else if n.Used()+sz <= n.Cap {
					return false // refused an allocation that fits
				}
			} else {
				k := r.Intn(len(live))
				n.Release(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if n.Used() < 0 || n.Used() > n.Cap {
				return false
			}
		}
		for _, sz := range live {
			n.Release(sz)
		}
		return n.Used() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refFlow is one live flow as the per-flow reference allocator sees it.
type refFlow struct {
	demands []Demand
	cap     float64 // bytes/second; +Inf when uncapped
	rate    float64 // current granted rate
	frozen  bool    // allocator scratch
}

// referenceRates is the per-flow progressive filling the allocator ran
// before it filled flow classes, kept as the oracle the class allocator
// must match bit for bit. It overwrites the resources' allocator
// scratch, which fill re-initialises on every call.
func referenceRates(flows []*refFlow) {
	// Gather the distinct resources in first-use order.
	var resources []*resource
	for _, f := range flows {
		f.rate = 0
		f.frozen = false
		for _, d := range f.demands {
			for _, r := range d.resources() {
				if !r.seen {
					r.seen = true
					r.remCap = r.capacity
					r.users = 0
					resources = append(resources, r)
				}
				r.users++
			}
		}
	}
	defer func() {
		for _, r := range resources {
			r.seen = false
		}
	}()

	// Progressive filling: raise all unfrozen flows' rates together
	// until each hits its cap or saturates one of its resources.
	unfrozen := len(flows)
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, r := range resources {
			if r.users > 0 {
				if v := r.remCap / float64(r.users); v < inc {
					inc = v
				}
			}
		}
		for _, f := range flows {
			if !f.frozen {
				if v := f.cap - f.rate; v < inc {
					inc = v
				}
			}
		}
		if inc < 0 {
			inc = 0
		}
		for _, f := range flows {
			if f.frozen {
				continue
			}
			f.rate += inc
			for _, d := range f.demands {
				for _, r := range d.resources() {
					r.remCap -= inc
				}
			}
		}
		progressed := false
		for _, f := range flows {
			if f.frozen {
				continue
			}
			saturated := f.rate >= f.cap-1e-9*f.cap
			if !saturated {
			scan:
				for _, d := range f.demands {
					for _, r := range d.resources() {
						if r.remCap <= 1e-9*r.capacity {
							saturated = true
							break scan
						}
					}
				}
			}
			if saturated {
				f.frozen = true
				unfrozen--
				progressed = true
				for _, d := range f.demands {
					for _, r := range d.resources() {
						r.users--
					}
				}
			}
		}
		if !progressed {
			panic("memsim: progressive filling failed to converge")
		}
	}
}

// TestQuickRatesMatchPerFlowReference checks, after every flow start and
// every completion, that each live flow's rate equals the per-flow
// reference allocator's bit for bit. The seed is fixed, and the test
// also checks that the plans covered the mixes class filling must get
// right: same-node copies, uncapped flows, one cap under both demand
// orders, classes with several members, classes that empty out and
// recur, and many distinct caps at once.
func TestQuickRatesMatchPerFlowReference(t *testing.T) {
	type liveFlow struct {
		pf  plannedFlow
		f   *Flow
		ref refFlow
	}
	var sameNode, uncapped, permuted, shared, recurred, maxCaps int
	check := func(plan flowPlan) bool {
		e := sim.NewEngine(99)
		defer e.Close()
		s := planSystem(e)
		var started []*liveFlow
		ok := true
		compare := func(when string) {
			var live []*liveFlow
			var refs []*refFlow
			caps := map[float64]bool{}
			for _, lf := range started {
				if !lf.f.Done() {
					live = append(live, lf)
					refs = append(refs, &lf.ref)
					caps[lf.ref.cap] = true
				}
			}
			maxCaps = max(maxCaps, len(caps))
			referenceRates(refs)
			for i, lf := range live {
				if got, want := lf.f.Rate(), refs[i].rate; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s at t=%v: live flow %d (%+v) rate %v, reference %v", when, e.Now(), i, lf.pf, got, want)
					ok = false
				}
			}
		}
		for _, pf := range plan.flows {
			pf := pf
			e.Schedule(pf.start, func() {
				cap := pf.cap
				if cap <= 0 {
					cap = math.Inf(1)
					uncapped++
				}
				if pf.dst == pf.src {
					sameNode++
				}
				var seen, live, swapped bool
				for _, o := range started {
					if o.pf.src != pf.src || o.pf.dst != pf.dst || o.ref.cap != cap {
						continue
					}
					if o.pf.writeFirst == pf.writeFirst {
						seen = true
						live = live || !o.f.Done()
					} else if pf.dst >= 0 && !o.f.Done() {
						swapped = true
					}
				}
				if live {
					shared++
				} else if seen {
					recurred++
				}
				if swapped {
					permuted++
				}
				lf := &liveFlow{pf: pf, ref: refFlow{demands: pf.demands(s), cap: cap}}
				lf.f = s.StartFlow(FlowSpec{
					Bytes:   pf.bytes,
					Demands: lf.ref.demands,
					RateCap: pf.cap,
				})
				lf.f.Then(func() { compare("after completion") })
				started = append(started, lf)
				compare("after start")
			})
		}
		e.RunAll()
		return ok && s.ActiveFlows() == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"same-node copies", sameNode},
		{"uncapped flows", uncapped},
		{"starts beside a live flow of the same cap and permuted demands", permuted},
		{"starts into a live class", shared},
		{"starts into a class that had emptied out", recurred},
	} {
		if c.n == 0 {
			t.Errorf("no plan covered %s", c.what)
		}
	}
	if maxCaps < 6 {
		t.Errorf("at most %d distinct caps were live at once, want >= 6", maxCaps)
	}
	t.Logf("same-node %d, uncapped %d, permuted %d, shared %d, recurred %d, max distinct caps %d",
		sameNode, uncapped, permuted, shared, recurred, maxCaps)
}

// planTimeout bounds one plan's run. A plan drains in milliseconds; an
// allocator that reschedules a completion at the same instant forever
// never does.
const planTimeout = 10 * time.Second

// runPlan runs plan on its own goroutine and returns the allocator's
// counters and the first failure: a rate that differs from the per-flow
// reference, a fill that had not run by an instant's end, a flow left
// active, or an engine that did not drain within planTimeout. The
// goroutine of a run that timed out keeps spinning; it ends with the
// test binary.
func runPlan(plan flowPlan) (Stats, error) {
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := runPlanDeferred(plan)
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		return r.st, r.err
	case <-time.After(planTimeout):
		return Stats{}, fmt.Errorf("the engine did not drain within %v (plan %+v)", planTimeout, plan.flows)
	}
}

// runPlanDeferred runs plan without reading a rate mid-instant. At the
// end of every instant in which a flow started or finished, it checks
// each live flow's rate against the per-flow reference bit for bit, and
// that reading the rates ran no fill: the instant's deferred fill had
// already run.
func runPlanDeferred(plan flowPlan) (Stats, error) {
	e := sim.NewEngine(99)
	defer e.Close()
	s := planSystem(e)
	type liveFlow struct {
		f   *Flow
		ref refFlow
	}
	var (
		started     []*liveFlow
		err         error
		checkQueued bool
	)
	check := func() {
		checkQueued = false
		fills := s.Stats().Fills
		var live []*liveFlow
		var refs []*refFlow
		for _, lf := range started {
			if !lf.f.Done() {
				live = append(live, lf)
				refs = append(refs, &lf.ref)
			}
		}
		referenceRates(refs)
		for i, lf := range live {
			if got, want := lf.f.Rate(), refs[i].rate; math.Float64bits(got) != math.Float64bits(want) && err == nil {
				err = fmt.Errorf("at the end of t=%v: live flow %d rate %v, reference %v", e.Now(), i, got, want)
			}
		}
		if s.Stats().Fills != fills && err == nil {
			err = fmt.Errorf("at the end of t=%v: reading the rates ran a fill", e.Now())
		}
	}
	queueCheck := func() {
		if !checkQueued {
			checkQueued = true
			e.AtInstantEnd(check)
		}
	}
	for _, pf := range plan.flows {
		pf := pf
		e.Schedule(pf.start, func() {
			cap := pf.cap
			if cap <= 0 {
				cap = math.Inf(1)
			}
			lf := &liveFlow{ref: refFlow{demands: pf.demands(s), cap: cap}}
			lf.f = s.StartFlow(FlowSpec{Bytes: pf.bytes, Demands: lf.ref.demands, RateCap: pf.cap})
			lf.f.Then(queueCheck)
			started = append(started, lf)
			queueCheck()
		})
	}
	e.RunAll()
	if n := s.ActiveFlows(); n != 0 && err == nil {
		err = fmt.Errorf("%d flows still active after RunAll", n)
	}
	return s.Stats(), err
}

// TestQuickDeferredRatesMatchPerFlowReference drives the deferred fill
// alone: several flows start in one instant and no rate is read until
// the instant ends, where every live flow's rate must equal the
// per-flow reference allocator's bit for bit. The seed is fixed, and
// the test checks that the plans merged changes into shared fills.
func TestQuickDeferredRatesMatchPerFlowReference(t *testing.T) {
	var total Stats
	check := func(plan burstPlan) bool {
		st, err := runPlan(plan.flowPlan)
		if err != nil {
			t.Error(err)
			return false
		}
		total.Starts += st.Starts
		total.Completions += st.Completions
		total.Fills += st.Fills
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if changes := total.Starts + total.Completions; total.Fills >= changes {
		t.Errorf("%d fills for %d starts and completions: no fill served several changes", total.Fills, changes)
	}
	t.Logf("%d starts, %d completion events, %d fills", total.Starts, total.Completions, total.Fills)
}

// FuzzFlowPlans runs random flow plans whose starts reach 10^4 s, where
// a completion delay can round away against the clock, and checks that
// every run drains with its rates equal to the per-flow reference.
func FuzzFlowPlans(f *testing.F) {
	f.Add(int64(1), uint16(1), uint8(0))
	f.Add(int64(2), uint16(100), uint8(4))
	f.Add(int64(3), uint16(10000), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, span uint16, instants uint8) {
		plan := randomPlan(rand.New(rand.NewSource(seed)), sim.Time(span%10001), int(instants%16))
		if _, err := runPlan(plan); err != nil {
			t.Fatal(err)
		}
	})
}
