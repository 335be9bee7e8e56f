package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// The fuzz corpus is seeded from a committed X11 capture (the fig8
// overflow run at -scale small, regenerate with
// `go run ./cmd/hmrepro -scale small -only x11 -trace
// internal/trace/testdata/x11-small.jsonl`), one seed per event kind
// so every decode path and every fast-encoder case starts covered.

// seedEventLines returns the first capture line of each event kind.
func seedEventLines(t testing.TB) [][]byte {
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		t.Fatalf("reading seed capture: %v", err)
	}
	seen := map[string]bool{}
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var probe struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("seed capture has an unparseable line: %v\n%s", err, line)
		}
		if !seen[probe.K] {
			seen[probe.K] = true
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		t.Fatal("seed capture is empty")
	}
	return lines
}

// FuzzDecodeEvent feeds arbitrary JSONL to the capture decoder. The
// invariants: Decode never panics, anything it accepts re-encodes and
// re-decodes to the same event sequence, and the encoding is a fixed
// point (encode(decode(encode(c))) == encode(c)).
func FuzzDecodeEvent(f *testing.F) {
	for _, line := range seedEventLines(f) {
		f.Add(line)
	}
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"k":"nope"}`))
	f.Add([]byte("{\"k\":\"send\",\"seq\":1,\"t\":0.5}\n{\"k\":\"done\",\"seq\":2,\"t\":1}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			// Malformed input: the readable prefix (if any) must still
			// round-trip below on its own; skip here.
			return
		}
		enc := c.Bytes()
		c2, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v\nencoded:\n%s", err, enc)
		}
		if len(c2.Events) != len(c.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(c.Events), len(c2.Events))
		}
		for i := range c.Events {
			if c.Events[i].Kind() != c2.Events[i].Kind() {
				t.Fatalf("round trip changed event %d kind: %s -> %s",
					i, c.Events[i].Kind(), c2.Events[i].Kind())
			}
		}
		if enc2 := c2.Bytes(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
	})
}

// FuzzEncodeParity holds the fast encoder to its contract: for every
// event the appendEvent type switch claims, its bytes are identical to
// encoding/json's. Fuzzed field values (negative sizes, huge floats,
// odd strings) must either match byte-for-byte or make the fast path
// decline (ok=false) and defer to the reflective encoder.
func FuzzEncodeParity(f *testing.F) {
	for _, line := range seedEventLines(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			return
		}
		var probe struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return
		}
		e, err := newEvent(probe.K)
		if err != nil {
			return
		}
		if err := json.Unmarshal(line, e); err != nil {
			return
		}
		fast, ok := appendEvent(nil, e)
		if !ok {
			// Slow-path kind or escape-needing string: reflective
			// encoder takes over, nothing to compare.
			return
		}
		ref, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("json.Marshal of decoded %s event failed: %v", e.Kind(), err)
		}
		if !bytes.Equal(fast, ref) {
			t.Fatalf("fast encoding diverges from encoding/json for %s:\nfast: %s\njson: %s",
				e.Kind(), fast, ref)
		}
	})
}
