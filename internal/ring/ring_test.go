package ring

import (
	"math/rand"
	"testing"
)

// TestDequeMatchesSlice drives a Deque and a plain slice through the
// same random pushes at both ends and pops, across many growths and
// wrap-arounds, and requires identical contents after every step.
func TestDequeMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Deque[int]
	var want []int
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(6); {
		case op < 2:
			d.PushBack(step)
			want = append(want, step)
		case op == 2:
			d.PushFront(step)
			want = append([]int{step}, want...)
		default:
			if len(want) == 0 {
				continue
			}
			if got := d.Front(); got != want[0] {
				t.Fatalf("step %d: Front = %d, want %d", step, got, want[0])
			}
			if got := d.PopFront(); got != want[0] {
				t.Fatalf("step %d: PopFront = %d, want %d", step, got, want[0])
			}
			want = want[1:]
		}
		if d.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), len(want))
		}
		for i, w := range want {
			if got := d.At(i); got != w {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, w)
			}
		}
	}
}

// TestDequeSteadyStateAllocs: once grown, a deque at a steady depth
// allocates nothing.
func TestDequeSteadyStateAllocs(t *testing.T) {
	var d Deque[*int]
	v := new(int)
	for i := 0; i < 8; i++ {
		d.PushBack(v)
	}
	if a := testing.AllocsPerRun(1000, func() {
		d.PushBack(v)
		d.PopFront()
		d.PushFront(v)
		d.PopFront()
	}); a != 0 {
		t.Fatalf("%v allocs per push/pop round, want 0", a)
	}
}
