package numa

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

// TestQuickAllocFreeAccounting: random alloc/migrate sequences keep
// node usage consistent with the set of live buffers, and the counts
// of allocations and frees with their number: a migration claims one
// destination and frees one source.
func TestQuickAllocFreeAccounting(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(1)
		sys := memsim.NewSystem(e, []memsim.NodeSpec{
			{Name: "DDR", Kind: memsim.DDR, Cap: 64 * gb, ReadBW: 100 * float64(gb), WriteBW: 80 * float64(gb)},
			{Name: "HBM", Kind: memsim.HBM, Cap: 8 * gb, ReadBW: 400 * float64(gb), WriteBW: 380 * float64(gb)},
		})
		a := New(sys)
		var live []*Buffer
		ok := true
		e.Spawn("driver", func(p *sim.Proc) {
			for step := 0; step < 120 && ok; step++ {
				switch r.Intn(3) {
				case 0, 1: // allocate
					size := int64(1+r.Intn(512)) * (1 << 20)
					b, err := a.AllocOnNode(size, r.Intn(2))
					if err != nil {
						if !errors.Is(err, ErrNoSpace) {
							ok = false
						}
						continue
					}
					live = append(live, b)
				case 2: // migrate
					if len(live) == 0 {
						continue
					}
					k := r.Intn(len(live))
					if _, err := migrate(p, a, live[k], r.Intn(2)); err != nil && !errors.Is(err, ErrNoSpace) {
						ok = false
					}
				}
				// Invariant: node usage equals the sum of live buffers.
				var want [2]int64
				for _, b := range live {
					want[b.Node().ID] += b.Size()
				}
				for n := 0; n < 2; n++ {
					if sys.Node(n).Used() != want[n] {
						ok = false
					}
				}
			}
			if a.LiveBuffers != len(live) || a.TotalAllocs-a.TotalFrees != int64(len(live)) {
				ok = false
			}
		})
		e.RunAll()
		e.Close()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
