package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/stream"
	"github.com/hetmem/hetmem/internal/topology"
)

// Fig1Result is the STREAM bandwidth comparison (Fig. 1): the four
// STREAM kernels on DDR4 and MCDRAM with 64 threads.
type Fig1Result struct {
	Scale Scale
	DDR   []stream.Result
	HBM   []stream.Result
}

// Fig1 measures STREAM on both memory nodes.
func (sw *Sweep) Fig1() (*Fig1Result, error) {
	s := sw.Scale
	spec := s.Machine()
	threads := s.NumPEs()
	arr := int64(256 << 20)
	if s == Small {
		arr = 64 << 20
	}
	ddr, err := stream.Measure(spec, topology.DDRNodeID, threads, arr)
	if err != nil {
		return nil, err
	}
	hbm, err := stream.Measure(spec, topology.HBMNodeID, threads, arr)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Scale: s, DDR: ddr, HBM: hbm}, nil
}

// Ratio returns the MCDRAM/DDR4 bandwidth ratio for kernel i.
func (r *Fig1Result) Ratio(i int) float64 {
	return r.HBM[i].Bandwidth / r.DDR[i].Bandwidth
}

// Table renders the figure.
func (r *Fig1Result) Table() Table {
	t := Table{
		Title:  "Fig 1: STREAM bandwidth, DDR4 vs MCDRAM",
		Header: []string{"kernel", "DDR4 GB/s", "MCDRAM GB/s", "ratio"},
		Notes: []string{
			"paper: MCDRAM has over 4x higher bandwidth than DDR4",
			fmt.Sprintf("%d threads, %s scale", r.DDR[0].Threads, r.Scale),
		},
	}
	for i := range r.DDR {
		t.Rows = append(t.Rows, []string{
			r.DDR[i].Kernel,
			f2(r.DDR[i].Bandwidth / topology.GBf),
			f2(r.HBM[i].Bandwidth / topology.GBf),
			f2(r.Ratio(i)),
		})
	}
	return t
}
