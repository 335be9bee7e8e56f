package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// encodedLines are lines in the encoder's shape for what the committed
// X11 capture lacks: the lanes and adapt kinds, an evict with a
// destination tier, a send with several dependences, and numbers the
// encoder never writes but JSON allows (an exponent, -0).
var encodedLines = []string{
	`{"k":"lanes","seq":4,"t":0.25,"window":11,"lanes":3,"total":8,"active":2}`,
	`{"k":"adapt","seq":5,"t":0.5,"window":4,"action":"prefetch_depth 1 -> 2"}`,
	`{"k":"evict","seq":6,"t":1.5,"lane":9,"block":"A0","bytes":268435456,"dur":0.3333333333333333,"forced":true,"policy":"lookahead","dst":"NVM"}`,
	`{"k":"send","seq":7,"t":2,"id":-7,"arr":"st","idx":3,"entry":"e","pe":1,"from":0,"prefetch":false,"deps":[{"block":"A0","bytes":8,"mode":"rw"},{"block":"B1","bytes":16,"mode":"r"}]}`,
	`{"k":"kernel","seq":8,"t":1e3,"id":-0,"pe":0,"flops":1.5E+9,"scale":-0,"start":2.5e-7,"dur":0}`,
	`{"k":"pressure","seq":9,"t":0,"pe":2,"task":"st[3].e <&>","need":1,"used":2,"reserved":3,"budget":-4}`,
}

// declinedLines are lines the fast parser must leave to decodeLine,
// which decodes some of them and rejects the rest.
var declinedLines = []string{
	`{"seq":1,"k":"done","t":0}`,            // another field order
	`{"k":"send","seq":1,"t":0,"k":"done"}`, // a later duplicate "k" wins
	`{"k":"send","seq":1,"t":0,"K":"done"}`, // keys match case-insensitively
	`{"k":"bogus","seq":1}`,                 // unknown kind
	`{"k":"s\u0065nd","seq":1,"t":0}`,       // escaped kind
	`{"k":"send"}`,                          // no comma after the kind
	`{"k":"send","seq":"one","t":0}`,        // a field of the wrong type
	`{"k":"send","seq":1,"t":0,"k":5}`,      // a later "k" of the wrong type
	`{"k":"send","seq":1,"t":0`,             // truncated
	`{"K":"done","seq":1,"t":0.5,"id":7}`,
	`{"k":"done","seq":1,"t":0.5,"ID":7}`,
	`{"k":"done","seq":1,"t":0.5,"id":7,"id":8}`,
	`{"k":"done", "seq":1,"t":0.5,"id":7}`,
	`{"k":"done","seq":1,"t":0.5,"id":7 }`,
	`{"k":"handle","seq":1,"t":0,"block":"A\u0030","bytes":8,"node":"DDR4"}`,
	`{"k":"handle","seq":1,"t":0,"block":"A\/0","bytes":8,"node":"DDR4"}`,
	`{"k":"handle","seq":1,"t":0,"block":"Aé","bytes":8,"node":"DDR4"}`,
	"{\"k\":\"handle\",\"seq\":1,\"t\":0,\"block\":\"A\xff\",\"bytes\":8,\"node\":\"DDR4\"}",
	"{\"k\":\"handle\",\"seq\":1,\"t\":0,\"block\":\"A\t\",\"bytes\":8,\"node\":\"DDR4\"}",
	`{"k":"handle","seq":1,"t":0,"block":null,"bytes":8,"node":"DDR4"}`,
	`{"k":"done","seq":1,"t":null,"id":7}`,
	`{"k":"admit","seq":1,"t":0,"id":7,"pe":0,"bytes":8,"staged":null}`,
	`{"k":"send","seq":1,"t":0,"id":7,"arr":"a","idx":0,"entry":"e","pe":0,"from":0,"prefetch":true,"deps":[]}`,
	`{"k":"send","seq":1,"t":0,"id":7,"arr":"a","idx":0,"entry":"e","pe":0,"from":0,"prefetch":true,"deps":null}`,
	`{"k":"send","seq":1,"t":0,"id":7,"arr":"a","idx":0,"entry":"e","pe":0,"from":0,"prefetch":true,"deps":[{"block":"A","bytes":8,"mode":"rw"},]}`,
	`{"k":"evict","seq":1,"t":0,"lane":1,"block":"A","bytes":8,"dur":0.5,"forced":false,"policy":"decl","dst":""}`,
	`{"k":"done","seq":01,"t":0.5,"id":7}`,
	`{"k":"done","seq":1,"t":00.5,"id":7}`,
	`{"k":"done","seq":1.0,"t":0.5,"id":7}`,
	`{"k":"done","seq":1e3,"t":0.5,"id":7}`,
	`{"k":"done","seq":+1,"t":0.5,"id":7}`,
	`{"k":"done","seq":-,"t":0.5,"id":7}`,
	`{"k":"done","seq":1,"t":.5,"id":7}`,
	`{"k":"done","seq":1,"t":1.,"id":7}`,
	`{"k":"done","seq":1,"t":1e,"id":7}`,
	`{"k":"done","seq":1,"t":0x1p-2,"id":7}`,
	`{"k":"done","seq":1,"t":Inf,"id":7}`,
	`{"k":"done","seq":1,"t":NaN,"id":7}`,
	`{"k":"done","seq":1,"t":1_0,"id":7}`,
	`{"k":"done","seq":1,"t":1e400,"id":7}`,
	`{"k":"done","seq":9223372036854775808,"t":0.5,"id":7}`,
	`{"k":"run-start","seq":1,"t":0.5,"id":7,"pe":-9223372036854775809}`,
	`{"k":"done","seq":1,"t":0.5,"id":7}x`,
	`{"k":"done","seq":1,"t":0.5,"id":7}{}`,
	`{"k":"retune","seq":1,"t":0,"knobs":{"mode":"No IO thread"}}`,
	`{"k":"stats","seq":1,"t":0,"makespan":1}`,
	`{"k":"meta","seq":0,"t":0,"version":1}`,
}

// TestDecodeOnceMatchesTwoPass decodes every line of the committed X11
// capture, and the encoder-shaped lines of the kinds it lacks, through
// the one-pass fast parser and the two-pass decodeLine, and compares
// the events one by one; then it checks Decode returns the capture's
// sequence. Every line of the 13 kinds appendEvent writes must take the
// fast path, and the meta, retune and stats kinds must not.
func TestDecodeOnceMatchesTwoPass(t *testing.T) {
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	capLines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	lines := append([][]byte(nil), capLines...)
	for _, l := range encodedLines {
		lines = append(lines, []byte(l))
	}
	d := newDecoder()
	var want []Event
	kinds := map[string]bool{}
	for i, line := range lines {
		two, err := decodeLine(line)
		if err != nil {
			t.Fatalf("line %d: two-pass decode: %v", i+1, err)
		}
		one := d.decodeFast(line)
		if k := two.Kind(); k == "meta" || k == "retune" || k == "stats" {
			if one != nil {
				t.Fatalf("line %d: the fast path took a %s event", i+1, two.Kind())
			}
		} else if one == nil {
			t.Fatalf("line %d (%s) missed the fast path: %s", i+1, two.Kind(), line)
		} else if !reflect.DeepEqual(one, two) {
			t.Fatalf("line %d: fast %+v, two-pass %+v", i+1, one, two)
		}
		if i < len(capLines) {
			want = append(want, two)
		}
		kinds[two.Kind()] = true
	}
	if len(kinds) != 15 {
		t.Errorf("covered %d kinds, want meta, stats and the 13 the encoder writes", len(kinds))
	}
	c, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Events, want) {
		t.Fatal("Decode's events differ from the two-pass decode of each line")
	}
	t.Logf("%d events of %d kinds", len(lines), len(kinds))
}

// TestDecodeOnceDeclines: lines the fast parser must leave to the
// two-pass path, which decides their event or error.
func TestDecodeOnceDeclines(t *testing.T) {
	d := newDecoder()
	for _, line := range declinedLines {
		if e := d.decodeFast([]byte(line)); e != nil {
			t.Errorf("decodeFast(%s) = %+v, want nil", line, e)
		}
	}
	e, err := decodeLine([]byte(`{"k":"send","seq":1,"t":0,"k":"done"}`))
	if err != nil || e.Kind() != "done" {
		t.Fatalf("two-pass decode of a duplicate \"k\" = %v, %v; want a done event", e, err)
	}
}

// TestDecodeAllocs bounds the allocations of one Decode of the
// committed X11 capture (3,617 lines): about one per event, plus each
// send's dependence slice and each distinct name. The reflective
// decoder made 33,067.
func TestDecodeAllocs(t *testing.T) {
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4300
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("Decode made %.0f allocations, bound %d", allocs, bound)
	}
	t.Logf("%.0f allocations", allocs)
}

// BenchmarkDecode decodes the committed X11 capture; bytes/s is the
// decode rate hmtrace and the offline tuner see. On a shared 2-vCPU
// Xeon it reads 101–109 MB/s with 3,912 allocations; the reflective
// decoder it replaced read 17–19 MB/s there, with 33,067.
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
