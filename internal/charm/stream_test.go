package charm

import (
	"testing"

	"github.com/hetmem/hetmem/internal/sim"
)

// spanSums sums the durations of the stream's spans by kind.
type spanSums struct {
	eng  *sim.Engine
	sums map[EventKind]sim.Time
}

func (s *spanSums) Observe(e Event) {
	switch e.Kind {
	case EvRunEnd, EvIdle, EvOverhead:
		s.sums[e.Kind] += s.eng.Now() - e.Start
	}
}

// logSink records the kinds it observes into a log shared with other
// sinks, tagged with its name, and runs react on each event.
type logSink struct {
	name  string
	log   *[]string
	react func(Event)
}

func (s *logSink) Observe(e Event) {
	*s.log = append(*s.log, s.name+":"+kindName[e.Kind])
	if s.react != nil {
		s.react(e)
	}
}

var kindName = map[EventKind]string{EvSend: "send", EvDecision: "decision"}

// TestSinksFireInAttachOrder: every sink sees each event in attach
// order, and an event a sink emits while observing reaches every sink
// before the outer emit returns.
func TestSinksFireInAttachOrder(t *testing.T) {
	_, rt := testRT(t, 1)
	var log []string
	first := &logSink{name: "a", log: &log}
	first.react = func(e Event) {
		if e.Kind == EvSend {
			rt.Emit(Event{Kind: EvDecision})
		}
	}
	rt.Attach(first)
	rt.Attach(&logSink{name: "b", log: &log})
	rt.Emit(Event{Kind: EvSend})
	want := []string{"a:send", "a:decision", "b:decision", "b:send"}
	if len(log) != len(want) {
		t.Fatalf("sinks saw %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("sinks saw %v, want %v", log, want)
		}
	}
}

type nopSink struct{ n int }

func (s *nopSink) Observe(e Event) { s.n += int(e.Kind) }

// TestEmitAllocatesNothing: the event travels by value, so an emit to
// an attached sink allocates nothing.
func TestEmitAllocatesNothing(t *testing.T) {
	_, rt := testRT(t, 1)
	rt.Attach(&nopSink{})
	task := &Task{}
	allocs := testing.AllocsPerRun(100, func() {
		rt.Emit(Event{Kind: EvFetchEnd, Lane: 3, Task: task, Name: "blk", Tier: "DDR4", Policy: "decl", Bytes: 1 << 20, Start: 1, Dur: 2})
	})
	if allocs != 0 {
		t.Fatalf("an emit made %v allocations, want 0", allocs)
	}
}
