package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// TestDecodeOnceMatchesTwoPass decodes every line of the committed X11
// capture through both paths and compares the events one by one, then
// checks Decode returns the same sequence. Every line the encoder wrote
// must take the one-pass path.
func TestDecodeOnceMatchesTwoPass(t *testing.T) {
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	kinds := map[string]bool{}
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		two, err := decodeLine(line)
		if err != nil {
			t.Fatalf("line %d: two-pass decode: %v", i+1, err)
		}
		one := decodeOnce(line)
		if one == nil {
			t.Fatalf("line %d (%s) missed the one-pass path", i+1, two.Kind())
		}
		if !reflect.DeepEqual(one, two) {
			t.Fatalf("line %d: one-pass %+v, two-pass %+v", i+1, one, two)
		}
		want = append(want, two)
		kinds[two.Kind()] = true
	}
	c, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Events, want) {
		t.Fatal("Decode's events differ from the two-pass decode of each line")
	}
	t.Logf("%d events of %d kinds", len(want), len(kinds))
}

// TestDecodeOnceDeclines: lines the one-pass path must leave to the
// two-pass one, which decides their event or error.
func TestDecodeOnceDeclines(t *testing.T) {
	for _, line := range []string{
		`{"seq":1,"k":"done","t":0}`,            // another field order
		`{"k":"send","seq":1,"t":0,"k":"done"}`, // a later duplicate "k" wins
		`{"k":"send","seq":1,"t":0,"K":"done"}`, // keys match case-insensitively
		`{"k":"bogus","seq":1}`,                 // unknown kind
		`{"k":"s\u0065nd","seq":1,"t":0}`,       // escaped kind
		`{"k":"send"}`,                          // no comma after the kind
		`{"k":"send","seq":"one","t":0}`,        // a field of the wrong type
		`{"k":"send","seq":1,"t":0,"k":5}`,      // a later "k" of the wrong type
		`{"k":"send","seq":1,"t":0`,             // truncated
	} {
		if e := decodeOnce([]byte(line)); e != nil {
			t.Errorf("decodeOnce(%s) = %+v, want nil", line, e)
		}
	}
	e, err := decodeLine([]byte(`{"k":"send","seq":1,"t":0,"k":"done"}`))
	if err != nil || e.Kind() != "done" {
		t.Fatalf("two-pass decode of a duplicate \"k\" = %v, %v; want a done event", e, err)
	}
}

// BenchmarkDecode decodes the committed X11 capture; bytes/s is the
// decode rate hmtrace and the offline tuner see.
func BenchmarkDecode(b *testing.B) {
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
