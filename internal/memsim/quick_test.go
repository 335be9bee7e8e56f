package memsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

// Generate implements quick.Generator. Caps are drawn so that flows
// often share one (kernel flows at a common per-core rate) and often
// differ slightly (serve's fair lanes re-dividing the memcpy rate every
// window); starts are spread so that classes empty out and recur.
func (flowPlan) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(24)
	p := flowPlan{}
	for i := 0; i < n; i++ {
		f := plannedFlow{
			start: sim.Time(r.Float64()),
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
	return reflect.ValueOf(p)
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
		s := NewSystem(e, []NodeSpec{
			{Name: "DDR", Kind: DDR, Cap: 1 << 40, ReadBW: 95 * float64(1<<30), WriteBW: 80 * float64(1<<30), TotalBW: 90 * float64(1<<30)},
			{Name: "HBM", Kind: HBM, Cap: 1 << 40, ReadBW: 450 * float64(1<<30), WriteBW: 385 * float64(1<<30), TotalBW: 465 * float64(1<<30)},
		})
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
// scratch, which reallocate re-initialises on every call.
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
		s := NewSystem(e, []NodeSpec{
			{Name: "DDR", Kind: DDR, Cap: 1 << 40, ReadBW: 95 * float64(1<<30), WriteBW: 80 * float64(1<<30), TotalBW: 90 * float64(1<<30)},
			{Name: "HBM", Kind: HBM, Cap: 1 << 40, ReadBW: 450 * float64(1<<30), WriteBW: 385 * float64(1<<30), TotalBW: 465 * float64(1<<30)},
		})
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
