package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/trace"
)

// allKinds builds a capture containing one of every event kind, with
// every field set to a non-zero, round-trip-hostile value (fractional
// floats, negative IDs, flags on).
func allKinds() *trace.Capture {
	knobs := trace.Knobs{
		Mode:            "Multiple IO threads",
		HBMReserve:      1 << 30,
		EvictLazily:     true,
		IOThreads:       3,
		SharedWaitQueue: true,
		EvictPolicy:     "lookahead",
		PrefetchDepth:   2,
		Metrics:         true,
	}
	events := []trace.Event{
		&trace.Meta{Version: trace.Version, NumPEs: 8, Seed: 42, Knobs: knobs,
			Params: charm.DefaultParams(), Spec: exp.Small.Machine(),
			Session: "sess-0042", Tenant: "acme"},
		&trace.HandleDecl{Block: "A0", Bytes: 1 << 28, Node: "INDDR"},
		&trace.Send{ID: 7, Arr: "stencil3d", Idx: 3, Entry: "compute_kernel",
			PE: 1, From: 0, Prefetch: true,
			Deps: []trace.Dep{{Block: "A0", Bytes: 1 << 28, Mode: "rw"}}},
		&trace.Admit{ID: 7, PE: 1, Bytes: 1 << 28, Staged: true},
		&trace.RunStart{ID: 7, PE: 1},
		&trace.Kernel{ID: 7, PE: 1, Flops: 1.5e9, Scale: 2.0,
			Start: 0.13704970000000002, Dur: 0.6096011349317466},
		&trace.RunEnd{ID: 7, PE: 1},
		&trace.FetchStart{Lane: 9, Block: "A0", Bytes: 1 << 28},
		&trace.FetchEnd{Lane: 9, Block: "A0", Bytes: 1 << 28,
			Dur: 0.030000000000000002, Src: "DDR4", Refetch: true},
		&trace.Evict{Lane: 9, Block: "A0", Bytes: 1 << 28,
			Dur: 1.0 / 3.0, Forced: true, Policy: "lookahead"},
		&trace.Pressure{PE: 2, Task: "stencil3d[3].compute_kernel",
			Need: 1 << 29, Used: 1 << 30, Reserved: 1 << 27, Budget: 1 << 30},
		&trace.Retune{Knobs: knobs},
		&trace.LaneAssign{Window: 11, Lanes: 3, Total: 8, Active: 2},
		&trace.Adapt{Window: 4, Action: "prefetch_depth 1 -> 2"},
		&trace.TaskDone{ID: 7},
		&trace.Stats{Makespan: 12.000000000000004, Tasks: 64, Fetches: 100,
			Refetches: 12, Evictions: 90, ForcedEvictions: 3, StageRetries: 5,
			BytesFetched: 1 << 38, BytesEvicted: 1 << 37, TasksStaged: 60, TasksInline: 4},
	}
	c := &trace.Capture{Events: events}
	for i, e := range events {
		// Stamp headers the way the recorder does.
		h := eventHeader(e)
		h.Seq = int64(i)
		h.T = 0.1 * float64(i) // deliberately inexact decimals
	}
	return c
}

// eventHeader reaches the embedded Ev via the exported fields — every
// concrete event embeds trace.Ev directly.
func eventHeader(e trace.Event) *trace.Ev {
	switch ev := e.(type) {
	case *trace.Meta:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.HandleDecl:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Send:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Admit:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.RunStart:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.RunEnd:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Kernel:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.FetchStart:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.FetchEnd:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Evict:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Pressure:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Retune:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.LaneAssign:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Adapt:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.TaskDone:
		ev.K = ev.Kind()
		return &ev.Ev
	case *trace.Stats:
		ev.K = ev.Kind()
		return &ev.Ev
	}
	panic("unknown event type")
}

// TestRoundTripAllKinds is the encoding's core property: for every
// event kind, encode -> decode -> encode is byte-identical.
func TestRoundTripAllKinds(t *testing.T) {
	c := allKinds()
	first := c.Bytes()
	dec, err := trace.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(dec.Events) != len(c.Events) {
		t.Fatalf("decoded %d events, want %d", len(dec.Events), len(c.Events))
	}
	second := dec.Bytes()
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	// Every kind must actually appear, so a new event type cannot ship
	// without joining this property test.
	seen := map[string]bool{}
	for _, e := range dec.Events {
		seen[e.Kind()] = true
	}
	for _, k := range []string{"meta", "handle", "send", "admit", "run-start",
		"run-end", "kernel", "fetch-start", "fetch-end", "evict", "pressure",
		"retune", "lanes", "adapt", "done", "stats"} {
		if !seen[k] {
			t.Errorf("capture is missing event kind %q", k)
		}
	}
	// hetmemd's session identity survives the round trip.
	if m := dec.Meta(); m == nil || m.Session != "sess-0042" || m.Tenant != "acme" {
		t.Errorf("decoded meta lost session identity: %+v", dec.Meta())
	}
}

// TestRealCaptureRoundTrip round-trips a capture produced by an actual
// run, so recorder-populated fields get the same guarantee.
func TestRealCaptureRoundTrip(t *testing.T) {
	_, c := runStencil(t, smallOpts(), true)
	first := c.Bytes()
	dec, err := trace.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(first, dec.Bytes()) {
		t.Fatalf("real capture round trip not byte-identical")
	}
}

// TestDecodeTruncated verifies partial-read recovery: a capture cut
// mid-line decodes its intact prefix and reports an error.
func TestDecodeTruncated(t *testing.T) {
	full := allKinds().Bytes()
	lines := bytes.Split(bytes.TrimRight(full, "\n"), []byte("\n"))
	// Keep 5 whole lines plus half of the 6th.
	trunc := append(bytes.Join(lines[:5], []byte("\n")), '\n')
	trunc = append(trunc, lines[5][:len(lines[5])/2]...)
	c, err := trace.Decode(bytes.NewReader(trunc))
	if err == nil {
		t.Fatalf("Decode of truncated capture succeeded")
	}
	if len(c.Events) != 5 {
		t.Fatalf("recovered %d events from truncated capture, want 5", len(c.Events))
	}
}

// TestDecodeRejects covers the hard error paths: unknown kinds (one
// behind a duplicate "k" too: the last "k" names the kind), version
// mismatches, and empty input.
func TestDecodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name, in, wantErr string
		wantEvents        int
	}{
		{"unknown kind", `{"k":"meta","version":1,"num_pes":1}` + "\n" + `{"k":"bogus"}` + "\n", "unknown event kind", 1},
		{"duplicate kind", `{"k":"meta","version":1,"num_pes":1}` + "\n" + `{"k":"send","seq":1,"t":0,"k":"bogus"}` + "\n", `line 2: trace: unknown event kind "bogus"`, 1},
		{"bad version", `{"k":"meta","version":99}` + "\n", "version 99", 0},
		{"empty", "", "empty capture", 0},
		{"blank lines only", "\n\n\n", "empty capture", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := trace.Decode(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
			if len(c.Events) != tc.wantEvents {
				t.Fatalf("recovered %d events, want %d", len(c.Events), tc.wantEvents)
			}
		})
	}
}
