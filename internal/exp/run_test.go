package exp

import (
	"strings"
	"testing"
)

// TestSweepRunsEachRunOnce: a Small sweep over the whole registry
// executes each distinct run once, 114 in all, of which X7's two
// weighted stencils have no key. X15 reuses X9's three cold stencil
// climbs and X11's shift capture, and its table is the one a fresh
// sweep prints, where it runs all thirteen of its runs itself.
func TestSweepRunsEachRunOnce(t *testing.T) {
	sw := &Sweep{Scale: Small}
	var x15Table string
	x15Runs := 0
	for _, e := range Experiments() {
		before := sw.executed
		r, err := e.Run(sw)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.Name == "x15" {
			x15Table, x15Runs = r.Table.String(), sw.executed-before
		}
	}
	if sw.executed != 114 || len(sw.memo) != 112 {
		t.Errorf("the sweep executed %d runs and memoised %d, want 114 and 112", sw.executed, len(sw.memo))
	}
	for key := range sw.memo {
		if strings.Contains(key, "0x") {
			t.Errorf("a key holds an address: %s", key)
		}
	}

	fresh := &Sweep{Scale: Small}
	r, err := fresh.X15()
	if err != nil {
		t.Fatal(err)
	}
	if x15Runs != 9 || fresh.executed != 13 {
		t.Errorf("x15 executed %d runs after x9 and x11 and %d on a fresh sweep, want 9 and 13", x15Runs, fresh.executed)
	}
	if got := r.Table().String(); got != x15Table {
		t.Errorf("x15 on a fresh sweep:\n%s\nafter x9 and x11:\n%s", got, x15Table)
	}
}
