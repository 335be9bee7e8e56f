package exp

import "testing"

// TestX15SmallGates runs the closed-loop tuning experiment at Small
// scale and checks its acceptance gates: warm-started adaptation beats
// the cold climb to settle on every X9 point, and the offline search
// over the shift capture recommends the lookahead victim policy.
func TestX15SmallGates(t *testing.T) {
	r, err := RunX15(Small)
	if err != nil {
		t.Fatalf("RunX15: %v", err)
	}
	if got := len(r.Points); got != len(Small.StencilReducedSizes())+len(Small.MatMulTotalSizes()) {
		t.Fatalf("X15 covered %d points, want every X9 point", got)
	}
	if err := r.Pass(); err != nil {
		t.Fatalf("X15 gate: %v\n%s", err, r.Table())
	}
	t.Logf("\n%s", r.Table())
}
