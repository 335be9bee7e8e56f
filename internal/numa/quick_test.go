package numa

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

// TestQuickAllocFreeAccounting: random alloc/free/migrate sequences
// keep node usage consistent with the set of live buffers and end at
// zero.
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
				switch r.Intn(4) {
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
				case 2: // free
					if len(live) == 0 {
						continue
					}
					k := r.Intn(len(live))
					if err := live[k].Free(); err != nil {
						ok = false
					}
					live = append(live[:k], live[k+1:]...)
				case 3: // migrate
					if len(live) == 0 {
						continue
					}
					k := r.Intn(len(live))
					if _, err := a.Migrate(p, live[k], r.Intn(2)); err != nil && !errors.Is(err, ErrNoSpace) {
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
			for _, b := range live {
				if err := b.Free(); err != nil {
					ok = false
				}
			}
			if sys.Node(0).Used() != 0 || sys.Node(1).Used() != 0 {
				ok = false
			}
			if a.LiveBuffers != 0 {
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
