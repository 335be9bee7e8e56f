package encodeparity

// fields stands in for the fast decoder's line reader.
type fields struct{ rest []string }

func (f *fields) str() string {
	if len(f.rest) == 0 {
		return ""
	}
	s := f.rest[0]
	f.rest = f.rest[1:]
	return s
}

func (f *fields) i64() int64 { return int64(len(f.str())) }

func (f *fields) hdr() Hdr { return Hdr{Kind: f.str(), T: float64(f.i64())} }

// decodeEvt builds each kind's event in one keyed literal, the way the
// fast trace decoder does.
func decodeEvt(kind string, f *fields) interface{} {
	switch kind {
	case "send":
		return &sendEvent{Hdr: f.hdr(), Dst: f.str(), Bytes: f.i64()}
	case "evict":
		return &evictEvent{Hdr: f.hdr(), Block: f.str(), Bytes: f.i64()} // want `fast-path decoder literal for evictEvent does not set field Forced`
	case "stats":
		// Notes is json:"-" and so not required here.
		return &statsEvent{Hdr: f.hdr(), Rows: int(f.i64())}
	}
	// Kinds absent from the switch decline to the reflective decoder.
	return nil
}
