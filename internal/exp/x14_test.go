package exp

import (
	"testing"

	"github.com/hetmem/hetmem/internal/core"
)

// TestX14GateAcceptance is the acceptance bar for the depth sweep:
// Lookahead beats DeclOrder outright on every chain deeper than the
// paper's, and its absolute advantage widens strictly from 2 to 3 to 4
// tiers on both apps (Pass checks both). The demotion split must also
// match the policies' rules: DeclOrder victims never stop at an
// intermediate tier, Lookahead victims never go past the adjacent one.
func TestX14GateAcceptance(t *testing.T) {
	res, err := (&Sweep{Scale: Small}).X14()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())
	if err := res.Pass(); err != nil {
		t.Error(err)
	}
	for _, row := range res.Rows {
		if row.Depth == 2 {
			// On the paper's machine the adjacent tier is the bottom;
			// both policies demote there.
			if row.DemotedDeep != 0 {
				t.Errorf("%s depth 2 %s: demoted %d bytes past the only far tier",
					row.App, row.Policy, row.DemotedDeep)
			}
			continue
		}
		switch row.Policy {
		case core.DeclOrder.Name():
			if row.DemotedNext != 0 {
				t.Errorf("%s depth %d decl: %d bytes stopped at the adjacent tier; decl drops to bottom",
					row.App, row.Depth, row.DemotedNext)
			}
		case core.Lookahead.Name():
			if row.DemotedDeep != 0 {
				t.Errorf("%s depth %d lookahead: %d bytes went past the adjacent tier; lookahead demotes one level",
					row.App, row.Depth, row.DemotedDeep)
			}
		}
	}
}

// TestThreeTierEvictionDemotion drives the cyclic-sweep shift workload
// on a 3-tier chain under all three victim policies and checks the
// demotion semantics end to end through the per-edge byte counters:
// DeclOrder and LRU drop victims to the bottom tier (no bytes stop at
// DDR4), Lookahead demotes one level (no bytes reach the bottom), and
// the cheaper refetch path makes Lookahead's post-shift phase faster
// than DeclOrder's.
func TestThreeTierEvictionDemotion(t *testing.T) {
	sw := &Sweep{Scale: Small}
	spec, err := Small.TieredMachine(3)
	if err != nil {
		t.Fatal(err)
	}
	postShift := make(map[string]float64)
	for _, pol := range core.EvictPolicies() {
		r := sw.x10Shift(pol)
		r.Spec = spec
		o, err := sw.do(r)
		if err != nil {
			t.Fatal(err)
		}
		postShift[pol.Name()] = float64(o.PostShift)

		near, next, bottom := o.Chain[0], o.Chain[1], o.Chain[2]
		edges := o.Stats.EdgeBytes
		toNext, toBottom := edges[near+"->"+next], edges[near+"->"+bottom]
		switch pol.DemoteTarget() {
		case core.DemoteBottom:
			if toNext != 0 {
				t.Errorf("%s: %d bytes stopped at %s; demote-to-bottom policies must not", pol.Name(), toNext, next)
			}
			if toBottom == 0 {
				t.Errorf("%s: no bytes evicted to %s; the workload exerts no pressure", pol.Name(), bottom)
			}
		case core.DemoteNext:
			if toBottom != 0 {
				t.Errorf("%s: %d bytes dropped to %s; one-level demotion must stop at %s", pol.Name(), toBottom, bottom, next)
			}
			if toNext == 0 {
				t.Errorf("%s: no bytes demoted to %s; the workload exerts no pressure", pol.Name(), next)
			}
		}
	}
	decl, look := postShift[core.DeclOrder.Name()], postShift[core.Lookahead.Name()]
	if look >= decl {
		t.Errorf("post-shift time: lookahead %.3f s not faster than decl %.3f s on the 3-tier chain", look, decl)
	}
}
