package trace

import (
	"slices"
	"strconv"
	"unicode/utf8"
)

// Fast JSONL decoding for the kinds appendEvent writes, the mirror of
// encode_fast.go. json.Unmarshal walks the event struct reflectively on
// every line, which made decoding the slowest step between a capture
// and its replay; decodeFast reads the same lines with plain code.
//
// It accepts a line only in the exact shape the encoder writes: the
// header's k, seq and t, then the kind's keys in declaration order, no
// whitespace, strings of printable ASCII with no escape, numbers in
// JSON's grammar that the field's Go type holds. For such a line its
// event equals json.Unmarshal's, because it parses every value with
// the strconv call encoding/json makes. Every other line (another key
// order or spelling, a duplicate key, whitespace, an escape or
// non-ASCII byte, null, a number json.Unmarshal rejects, "deps":[] or
// "dst":"", trailing bytes, and the meta, retune and stats kinds) is
// declined, for decodeLine to decode or reject with its usual error.
// FuzzDecodeParity holds the two paths to that contract.

// decoder is what one Decode shares across its lines.
type decoder struct {
	// names interns every string a line carries: a capture names the
	// same blocks, arrays, entries, tiers and policies on many lines.
	names map[string]string
	deps  []Dep // one send's dependences, before they are copied out
}

func newDecoder() *decoder { return &decoder{names: make(map[string]string)} }

func (d *decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// lineParser reads one line left to right. Each read consumes a
// literal key, then its value. The first mismatch sets bad; every later
// read then returns a zero value, and the line is declined.
type lineParser struct {
	d   *decoder
	b   []byte // the rest of the line
	bad bool
}

// at reports whether the rest of the line starts with lit.
func (p *lineParser) at(lit string) bool {
	return !p.bad && len(p.b) >= len(lit) && string(p.b[:len(lit)]) == lit
}

// skip consumes lit if the rest of the line starts with it.
func (p *lineParser) skip(lit string) bool {
	if !p.at(lit) {
		return false
	}
	p.b = p.b[len(lit):]
	return true
}

// key consumes lit, or marks the line bad.
func (p *lineParser) key(lit string) {
	if !p.skip(lit) {
		p.bad = true
	}
}

// str reads key and a string value with no escape and no byte outside
// printable ASCII.
func (p *lineParser) str(key string) string {
	if p.key(key); p.bad || len(p.b) == 0 || p.b[0] != '"' {
		p.bad = true
		return ""
	}
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := p.d.intern(p.b[1:i])
			p.b = p.b[i+1:]
			return s
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			p.bad = true
			return ""
		}
	}
	p.bad = true
	return ""
}

// optStr reads a string the encoder writes only when it is not empty
// (omitempty): "" when the line lacks key, and bad when it carries key
// with an empty value.
func (p *lineParser) optStr(key string) string {
	if !p.at(key) {
		return ""
	}
	s := p.str(key)
	if s == "" {
		p.bad = true
	}
	return s
}

// number reads key and a number in JSON's grammar — in its integer
// form when integral — and returns the number's bytes. What the grammar
// rejects (a leading + or zero, a bare or trailing point, hex, Inf,
// NaN) either stops the scan here or leaves bytes that the next key
// does not match.
func (p *lineParser) number(key string, integral bool) []byte {
	if p.key(key); p.bad {
		return nil
	}
	b, i := p.b, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		p.bad = true
		return nil
	}
	if !integral && i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			p.bad = true
			return nil
		}
	}
	if !integral && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			p.bad = true
			return nil
		}
	}
	p.b = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// i64 reads an int64 field as encoding/json does: strconv.ParseInt of
// the integer's bytes.
func (p *lineParser) i64(key string) int64 {
	num := p.number(key, true)
	if p.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		p.bad = true
	}
	return n
}

// int reads an int field, which must hold the value.
func (p *lineParser) int(key string) int {
	n := p.i64(key)
	if int64(int(n)) != n {
		p.bad = true
	}
	return int(n)
}

// f64 reads a float64 field as encoding/json does: strconv.ParseFloat
// of the number's bytes, refused when out of range.
func (p *lineParser) f64(key string) float64 {
	num := p.number(key, false)
	if p.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		p.bad = true
	}
	return f
}

// bool reads a bool field: the literal true or false.
func (p *lineParser) bool(key string) bool {
	switch p.key(key); {
	case p.skip("true"):
		return true
	case !p.skip("false"):
		p.bad = true
	}
	return false
}

// decodeDeps reads a send's dependence list, which the encoder writes
// only when it is not empty: nil when the line lacks it, and bad when
// it is empty.
func (p *lineParser) decodeDeps() []Dep {
	if !p.skip(`,"deps":[`) {
		return nil
	}
	deps := p.d.deps[:0]
	for {
		deps = append(deps, Dep{
			Block: p.str(`{"block":`),
			Bytes: p.i64(`,"bytes":`),
			Mode:  p.str(`,"mode":`),
		})
		if !p.skip(`},`) {
			break
		}
	}
	p.key(`}]`)
	p.d.deps = deps
	return slices.Clone(deps)
}

// decodeFast decodes a line in exactly the shape appendEvent writes,
// or returns nil for decodeLine to decode. Each case reads its kind's
// fields in declaration order, the order the encoder writes them.
func (d *decoder) decodeFast(line []byte) Event {
	p := &lineParser{d: d, b: line}
	h := Ev{K: p.str(`{"k":`), Seq: p.i64(`,"seq":`), T: p.f64(`,"t":`)}
	var e Event
	switch h.K {
	case "handle":
		e = &HandleDecl{
			Ev:    h,
			Block: p.str(`,"block":`),
			Bytes: p.i64(`,"bytes":`),
			Node:  p.str(`,"node":`),
		}
	case "send":
		e = &Send{
			Ev:       h,
			ID:       p.i64(`,"id":`),
			Arr:      p.str(`,"arr":`),
			Idx:      p.int(`,"idx":`),
			Entry:    p.str(`,"entry":`),
			PE:       p.int(`,"pe":`),
			From:     p.int(`,"from":`),
			Prefetch: p.bool(`,"prefetch":`),
			Deps:     p.decodeDeps(),
		}
	case "admit":
		e = &Admit{
			Ev:     h,
			ID:     p.i64(`,"id":`),
			PE:     p.int(`,"pe":`),
			Bytes:  p.i64(`,"bytes":`),
			Staged: p.bool(`,"staged":`),
		}
	case "run-start":
		e = &RunStart{Ev: h, ID: p.i64(`,"id":`), PE: p.int(`,"pe":`)}
	case "run-end":
		e = &RunEnd{Ev: h, ID: p.i64(`,"id":`), PE: p.int(`,"pe":`)}
	case "kernel":
		e = &Kernel{
			Ev:    h,
			ID:    p.i64(`,"id":`),
			PE:    p.int(`,"pe":`),
			Flops: p.f64(`,"flops":`),
			Scale: p.f64(`,"scale":`),
			Start: p.f64(`,"start":`),
			Dur:   p.f64(`,"dur":`),
		}
	case "fetch-start":
		e = &FetchStart{
			Ev:    h,
			Lane:  p.int(`,"lane":`),
			Block: p.str(`,"block":`),
			Bytes: p.i64(`,"bytes":`),
		}
	case "fetch-end":
		e = &FetchEnd{
			Ev:      h,
			Lane:    p.int(`,"lane":`),
			Block:   p.str(`,"block":`),
			Bytes:   p.i64(`,"bytes":`),
			Dur:     p.f64(`,"dur":`),
			Src:     p.str(`,"src":`),
			Refetch: p.bool(`,"refetch":`),
		}
	case "evict":
		e = &Evict{
			Ev:     h,
			Lane:   p.int(`,"lane":`),
			Block:  p.str(`,"block":`),
			Bytes:  p.i64(`,"bytes":`),
			Dur:    p.f64(`,"dur":`),
			Forced: p.bool(`,"forced":`),
			Policy: p.str(`,"policy":`),
			Dst:    p.optStr(`,"dst":`),
		}
	case "pressure":
		e = &Pressure{
			Ev:       h,
			PE:       p.int(`,"pe":`),
			Task:     p.str(`,"task":`),
			Need:     p.i64(`,"need":`),
			Used:     p.i64(`,"used":`),
			Reserved: p.i64(`,"reserved":`),
			Budget:   p.i64(`,"budget":`),
		}
	case "lanes":
		e = &LaneAssign{
			Ev:     h,
			Window: p.int(`,"window":`),
			Lanes:  p.int(`,"lanes":`),
			Total:  p.int(`,"total":`),
			Active: p.int(`,"active":`),
		}
	case "adapt":
		e = &Adapt{Ev: h, Window: p.int(`,"window":`), Action: p.str(`,"action":`)}
	case "done":
		e = &TaskDone{Ev: h, ID: p.i64(`,"id":`)}
	default:
		return nil
	}
	if p.key("}"); p.bad || len(p.b) > 0 {
		return nil
	}
	return e
}
