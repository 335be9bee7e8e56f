package exp

import (
	"math"
	"testing"
)

func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{3, 3, 3}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestX13Small runs the full figure at small scale and checks every
// acceptance property: sessions complete, symmetric tenants land a
// high Jain index, load makespans are monotone in arrival rate, and
// the isolation gate holds (it is only *enforced* by hmrepro at full
// scale, but it should hold at small scale too).
func TestX13Small(t *testing.T) {
	r, err := RunX13(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.CalibrationS <= 0 {
		t.Fatalf("calibration makespan = %v", r.CalibrationS)
	}
	if len(r.Load) != len(x13GapFactors) {
		t.Fatalf("load rows = %d, want %d", len(r.Load), len(x13GapFactors))
	}
	for _, row := range r.Load {
		if row.P50 <= 0 || row.P99 < row.P50 || row.Mean <= 0 {
			t.Fatalf("load row %s has degenerate stats: %+v", row.Label, row)
		}
		if row.Jain < 0.8 {
			t.Fatalf("load row %s: Jain %.4f below 0.8 despite symmetric tenants", row.Label, row.Jain)
		}
	}
	// Queueing theory sanity: heavier load cannot reduce p99.
	for i := 1; i < len(r.Load); i++ {
		if r.Load[i].P99 < r.Load[i-1].P99-1e-9 {
			t.Fatalf("p99 fell from %v (%s) to %v (%s) as load increased",
				r.Load[i-1].P99, r.Load[i-1].Label, r.Load[i].P99, r.Load[i].Label)
		}
	}
	if !r.FairWithinBound {
		t.Fatalf("fair p99 %v exceeds bound %v (alone %v)", r.Fair.P99, r.BoundS, r.Alone.P99)
	}
	if !r.FairBeatsUnfair {
		t.Fatalf("fair p99 %v not better than unfair %v", r.Fair.P99, r.Unfair.P99)
	}
	if !r.Pass() {
		t.Fatal("Pass() false with both gates holding")
	}
	if r.Table().String() == "" {
		t.Fatal("empty table")
	}
}

// TestX12ServeLeg covers the serve row of BENCH_engine.json at the
// small machine: the session mix must push all 1M tasks through and
// report a sane throughput.
func TestX12ServeLeg(t *testing.T) {
	leg, err := x12ServeRun(Small, &X12EngineRow{TasksPerSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 8 sessions x 64 lanes x floor(125000/64) tasks.
	if want := int64(8 * 64 * (125_000 / 64)); leg.Tasks != want {
		t.Fatalf("tasks = %d, want %d", leg.Tasks, want)
	}
	if leg.TasksPerSec <= 0 || leg.WallSec <= 0 {
		t.Fatalf("degenerate throughput: %+v", leg)
	}
	if leg.Windows == 0 {
		t.Fatal("no windows stepped")
	}
}
