package main

import (
	"encoding/json"
	"os"
	"time"
)

// spans records benchmark-level spans around calls into the layers. A
// nil *spans records nothing, so the untraced passes pay one nil check
// per boundary. Spans stay in memory until the run writes them.
type spans struct {
	t0   time.Time
	list []span
}

type span struct {
	name   string
	id     int // 1-based; 0 is "no parent"
	parent int
	start  time.Duration
	end    time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{name: name, id: len(s.list) + 1, parent: parent, start: time.Since(s.t0)})
	return len(s.list)
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].end = time.Since(s.t0)
}

// spanTotal is one span name's aggregate: how often it ran, its total
// duration and its self time (duration minus the time its children cover).
type spanTotal struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (s *spans) totals() map[string]spanTotal {
	child := make([]time.Duration, len(s.list)+1)
	for _, sp := range s.list {
		child[sp.parent] += sp.end - sp.start
	}
	out := map[string]spanTotal{}
	for _, sp := range s.list {
		t := out[sp.name]
		d := sp.end - sp.start
		t.Count++
		t.TotalMs += ms(d)
		t.SelfMs += ms(d - child[sp.id])
		out[sp.name] = t
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeChrome writes the spans as a Chrome trace_event file (complete
// "X" events on one thread; the viewer nests them by time).
func (s *spans) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(s.list))
	for _, sp := range s.list {
		events = append(events, event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": sp.id, "parent": sp.parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
