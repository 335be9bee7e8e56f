package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Fig7Point is one x-position of the memcpy-cost figure.
type Fig7Point struct {
	TotalBytes int64
	DDRToHBM   sim.Time
	HBMToDDR   sim.Time
}

// Fig7Result is the data-migration memcpy cost (Fig. 7): 64 threads
// simultaneously copying blocks between the memory nodes, for a range
// of total volumes and both directions. As in the paper, only the
// memcpy step is timed (allocation and free are excluded).
type Fig7Result struct {
	Scale   Scale
	Threads int
	Points  []Fig7Point
}

// Fig7 measures the migration memcpy cost.
func (sw *Sweep) Fig7() (*Fig7Result, error) {
	s := sw.Scale
	threads := s.NumPEs()
	res := &Fig7Result{Scale: s, Threads: threads}
	sizes := []int64{2 * GB, 4 * GB, 6 * GB, 8 * GB, 10 * GB, 12 * GB, 14 * GB, 15 * GB}
	if s == Small {
		sizes = []int64{GB / 4, GB / 2, GB, 3 * GB / 2}
	}
	for _, total := range sizes {
		d2h, err := measureMemcpy(s, threads, total, topology.DDRNodeID, topology.HBMNodeID)
		if err != nil {
			return nil, err
		}
		h2d, err := measureMemcpy(s, threads, total, topology.HBMNodeID, topology.DDRNodeID)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig7Point{TotalBytes: total, DDRToHBM: d2h, HBMToDDR: h2d})
	}
	return res, nil
}

// measureMemcpy has threads workers each copy (total/threads) bytes
// between pre-allocated buffers on src and dst nodes, and returns the
// time until the last copy finishes.
func measureMemcpy(s Scale, threads int, total int64, srcNode, dstNode int) (sim.Time, error) {
	e := sim.NewEngine(1)
	defer e.Close()
	mach, err := s.Machine().Build(e)
	if err != nil {
		return 0, err
	}
	alloc := mach.Alloc
	alloc.MemcpyRateCap = mach.Spec.MemcpyBW
	per := total / int64(threads)

	var wg sim.WaitGroup
	wg.Add(threads)
	var end sim.Time
	for i := 0; i < threads; i++ {
		src, err := alloc.AllocOnNode(per, srcNode)
		if err != nil {
			return 0, fmt.Errorf("exp: fig7 source alloc: %w", err)
		}
		dst, err := alloc.AllocOnNode(per, dstNode)
		if err != nil {
			return 0, fmt.Errorf("exp: fig7 destination alloc: %w", err)
		}
		e.Spawn(fmt.Sprintf("cp%d", i), func(p *sim.Proc) {
			if _, err := alloc.Memcpy(p, dst, src); err != nil {
				panic(err)
			}
			wg.Done()
		})
	}
	e.Spawn("join", func(p *sim.Proc) {
		wg.Wait(p)
		end = p.Now()
	})
	e.RunAll()
	return end, nil
}

// Table renders the figure.
func (r *Fig7Result) Table() Table {
	t := Table{
		Title:  "Fig 7: memcpy cost for data migration",
		Header: []string{"total moved", "DDR->HBM (s)", "HBM->DDR (s)"},
		Notes: []string{
			"paper: memcpy costs for HBM to DDR4 are slightly higher",
			fmt.Sprintf("%d concurrent threads, memcpy step only", r.Threads),
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{gbs(p.TotalBytes), f3(p.DDRToHBM), f3(p.HBMToDDR)})
	}
	return t
}

// Asymmetric reports whether every point shows HBM->DDR costing at
// least as much as DDR->HBM (the paper's observation).
func (r *Fig7Result) Asymmetric() bool {
	for _, p := range r.Points {
		if p.HBMToDDR < p.DDRToHBM {
			return false
		}
	}
	return true
}
