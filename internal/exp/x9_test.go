package exp

import "testing"

// TestX9AdaptiveAcceptance enforces the experiment's acceptance bar at
// the test scale: the controller converges within every run, lands
// within 5% of the best fixed configuration at every point of both
// sweeps, beats the worst fixed configuration by at least 1.3x
// somewhere, and every adaptive run is audit-clean (RunX9 fails on any
// violation or stall, so err == nil covers that).
func TestX9AdaptiveAcceptance(t *testing.T) {
	r, err := (&Sweep{Scale: Small}).X9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("expected 6 points (3 stencil + 3 matmul), got %d", len(r.Points))
	}
	bigWin := false
	for _, p := range r.Points {
		if p.ConvergedWindow < 0 {
			t.Errorf("%s %s: controller never settled\n%s", p.App, gbs(p.Size), r.Table())
		}
		if v := p.VsBest(); v > 1.05 {
			t.Errorf("%s %s: adaptive %.4g is %.2fx the best fixed %q %.4g (bar: 1.05)",
				p.App, gbs(p.Size), p.Adaptive, v, p.Best, p.BestVal)
		}
		if p.VsWorst() >= 1.3 {
			bigWin = true
		}
	}
	if !bigWin {
		t.Errorf("adaptive never beat the worst fixed configuration by 1.3x")
	}
	t.Logf("\n%s", r.Table())
}
