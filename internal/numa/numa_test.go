package numa

import (
	"errors"
	"math"
	"testing"

	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

const gb = int64(1) << 30

func testSetup() (*sim.Engine, *memsim.System, *Allocator) {
	e := sim.NewEngine(1)
	sys := memsim.NewSystem(e, []memsim.NodeSpec{
		{Name: "DDR4", Kind: memsim.DDR, Cap: 96 * gb, ReadBW: 100 * float64(gb), WriteBW: 80 * float64(gb)},
		{Name: "MCDRAM", Kind: memsim.HBM, Cap: 16 * gb, ReadBW: 400 * float64(gb), WriteBW: 380 * float64(gb)},
	})
	return e, sys, New(sys)
}

// migrate moves b to node as one Drive of p over a Migration, the step
// form core's movers run, and returns its elapsed time and error.
func migrate(p *sim.Proc, a *Allocator, b *Buffer, node int) (sim.Time, error) {
	var mg Migration
	mg.Start(a, b, node)
	p.Drive(func() bool { return mg.Step(p) })
	return mg.Result()
}

func TestAllocOnNode(t *testing.T) {
	_, sys, a := testSetup()
	b, err := a.AllocOnNode(4*gb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !b.OnNode(1) || b.Size() != 4*gb {
		t.Fatal("buffer not on HBM or wrong size")
	}
	if sys.Node(1).Used() != 4*gb {
		t.Fatal("HBM usage not accounted")
	}
}

func TestAllocOnNodeNoSpace(t *testing.T) {
	_, _, a := testSetup()
	if _, err := a.AllocOnNode(17*gb, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestMemcpyTime(t *testing.T) {
	e, _, a := testSetup()
	src, _ := a.AllocOnNode(10*gb, 0)
	dst, _ := a.AllocOnNode(10*gb, 1)
	var dur sim.Time
	e.Spawn("cp", func(p *sim.Proc) {
		d, err := a.Memcpy(p, dst, src)
		if err != nil {
			t.Error(err)
		}
		dur = d
	})
	e.RunAll()
	want := 10.0 / 100.0 // DDR read 100 GB/s is the bottleneck
	if math.Abs(dur-want) > 1e-9 {
		t.Fatalf("memcpy took %v, want %v", dur, want)
	}
}

func TestMemcpySizeMismatch(t *testing.T) {
	e, _, a := testSetup()
	src, _ := a.AllocOnNode(1*gb, 0)
	dst, _ := a.AllocOnNode(2*gb, 1)
	e.Spawn("cp", func(p *sim.Proc) {
		if _, err := a.Memcpy(p, dst, src); err == nil {
			t.Error("size mismatch not detected")
		}
	})
	e.RunAll()
}

func TestMigrate(t *testing.T) {
	e, sys, a := testSetup()
	b, _ := a.AllocOnNode(8*gb, 0)
	e.Spawn("mig", func(p *sim.Proc) {
		d, err := migrate(p, a, b, 1)
		if err != nil {
			t.Error(err)
		}
		if d <= 0 {
			t.Error("migration took no time")
		}
	})
	e.RunAll()
	if !b.OnNode(1) {
		t.Fatal("buffer not on HBM after migrate")
	}
	if sys.Node(0).Used() != 0 {
		t.Fatal("migration did not free DDR")
	}
	if sys.Node(1).Used() != 8*gb {
		t.Fatal("migration did not reserve HBM")
	}
	if a.MigrationCount != 1 || a.BytesMigrated != float64(8*gb) {
		t.Fatalf("migration stats: count=%d bytes=%g", a.MigrationCount, a.BytesMigrated)
	}
}

func TestMigrateNoopWhenAlreadyThere(t *testing.T) {
	e, _, a := testSetup()
	b, _ := a.AllocOnNode(1*gb, 1)
	e.Spawn("mig", func(p *sim.Proc) {
		d, err := migrate(p, a, b, 1)
		if err != nil || d != 0 {
			t.Errorf("noop migrate: d=%v err=%v", d, err)
		}
	})
	e.RunAll()
}

func TestMigrateNeedsTransientSpace(t *testing.T) {
	// The paper's routine allocates destination space before copying:
	// migrating 10 GB into HBM with only 8 GB free must fail.
	e, _, a := testSetup()
	a.AllocOnNode(8*gb, 1)
	b, _ := a.AllocOnNode(10*gb, 0)
	e.Spawn("mig", func(p *sim.Proc) {
		if _, err := migrate(p, a, b, 1); !errors.Is(err, ErrNoSpace) {
			t.Errorf("err = %v, want ErrNoSpace", err)
		}
	})
	e.RunAll()
	if !b.OnNode(0) {
		t.Fatal("failed migration moved the buffer")
	}
}

func TestMemcpyRateCap(t *testing.T) {
	e, _, a := testSetup()
	a.MemcpyRateCap = 10 * float64(gb)
	src, _ := a.AllocOnNode(10*gb, 0)
	dst, _ := a.AllocOnNode(10*gb, 1)
	var dur sim.Time
	e.Spawn("cp", func(p *sim.Proc) {
		dur, _ = a.Memcpy(p, dst, src)
	})
	e.RunAll()
	if math.Abs(dur-1.0) > 1e-9 {
		t.Fatalf("capped memcpy took %v, want 1.0", dur)
	}
}

func TestAllocatorStats(t *testing.T) {
	e, _, a := testSetup()
	b, _ := a.AllocOnNode(1*gb, 0)
	a.AllocOnNode(1*gb, 1)
	if a.LiveBuffers != 2 || a.TotalAllocs != 2 || a.TotalFrees != 0 {
		t.Fatalf("live=%d allocs=%d frees=%d", a.LiveBuffers, a.TotalAllocs, a.TotalFrees)
	}
	// A migration claims its destination as one more allocation and
	// frees its source.
	e.Spawn("mig", func(p *sim.Proc) { migrate(p, a, b, 1) })
	e.RunAll()
	if a.LiveBuffers != 2 || a.TotalAllocs != 3 || a.TotalFrees != 1 {
		t.Fatalf("after a migration: live=%d allocs=%d frees=%d", a.LiveBuffers, a.TotalAllocs, a.TotalFrees)
	}
}

func TestMigrateOpCostCharged(t *testing.T) {
	e, _, a := testSetup()
	a.MigrateOpCost = 0.5
	b, _ := a.AllocOnNode(1*gb, 0)
	var dur sim.Time
	e.Spawn("m", func(p *sim.Proc) {
		d, err := migrate(p, a, b, 1)
		if err != nil {
			t.Error(err)
		}
		dur = d
	})
	e.RunAll()
	// 1 GB at 100 GB/s = 0.01 s copy + 0.5 s fixed cost.
	if dur < 0.5 || dur > 0.52 {
		t.Fatalf("migration with op cost took %v, want ~0.51", dur)
	}
}

// TestMigrateAllocs pins the objects a DDR→HBM→DDR round trip of a
// buffer allocates at steady state: the two memcpy flows, one per
// migration. A Migration claims the destination's capacity and moves
// the buffer to it in place, building no destination Buffer.
func TestMigrateAllocs(t *testing.T) {
	e, sys, a := testSetup()
	defer e.Close()
	a.MigrateOpCost = 1e-6
	b, err := a.AllocOnNode(gb, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mover *sim.Proc
	mover = e.Spawn("mover", func(p *sim.Proc) {
		var mg Migration
		step := func() bool { return mg.Step(p) }
		for {
			for _, node := range []int{1, 0} {
				mg.Start(a, b, node)
				p.Drive(step)
				if _, err := mg.Result(); err != nil {
					panic(err)
				}
			}
			p.Suspend()
		}
	})
	trip := func() {
		mover.Resume()
		e.RunAll()
	}
	e.RunAll()
	trip()
	if got := testing.AllocsPerRun(50, trip); got != 2 {
		t.Errorf("a migration round trip allocates %v objects, want 2", got)
	}
	if !b.OnNode(0) || sys.Node(1).Used() != 0 || a.LiveBuffers != 1 || a.TotalAllocs != a.TotalFrees+1 {
		t.Errorf("after the round trips: on DDR %v, HBM used %d, live %d, allocs %d, frees %d",
			b.OnNode(0), sys.Node(1).Used(), a.LiveBuffers, a.TotalAllocs, a.TotalFrees)
	}
}
