package charm

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/sim"
)

// Message carries a payload to a chare element's entry method.
type Message struct {
	// Data is the application payload.
	Data interface{}
	// From identifies the sending element index, or -1 for mainchare
	// sends.
	From int
	// SentAt is the virtual send time.
	SentAt sim.Time
}

// EntryFn is the body of an entry method. It runs inside the PE's
// scheduler process (p); elem.Obj is the chare instance.
type EntryFn func(p *sim.Proc, pe *PE, elem *Element, msg *Message)

// DepsFn resolves the data dependences of a task at delivery time,
// mirroring the .ci declaration "[readwrite:A, writeonly:B]".
type DepsFn func(elem *Element, msg *Message) []DataDep

// Entry describes one entry method of a chare array. Prefetch marks it
// with the paper's [prefetch] attribute; Deps declares its data
// dependence blocks.
type Entry struct {
	Name     string
	Fn       EntryFn
	Prefetch bool
	Deps     DepsFn
}

// Element is one chare of an array, mapped to a PE. Chares migrate
// only when load balancing explicitly moves them (see loadbalance.go).
type Element struct {
	arr   *Array
	Index int
	PE    int
	Obj   Chare

	// load accumulates entry-method execution time for load
	// balancing (see loadbalance.go).
	load sim.Time
}

// Array returns the owning chare array.
func (el *Element) Array() *Array { return el.arr }

// Array is an over-decomposed 1-D chare array. Applications impose 2-D
// or 3-D index structure on top of the flat index (as Charm++ dense
// arrays do internally).
type Array struct {
	rt      *Runtime
	name    string
	elems   []*Element
	entries map[string]*Entry
}

// MapRoundRobin maps element i to PE i mod numPEs (Charm++'s default
// block-cyclic placement for dense arrays).
func MapRoundRobin(numPEs int) func(i int) int {
	return func(i int) int { return i % numPEs }
}

// MapBlock maps contiguous chunks of elements to each PE.
func MapBlock(n, numPEs int) func(i int) int {
	per := (n + numPEs - 1) / numPEs
	return func(i int) int { return i / per }
}

// NewArray creates an array of n chares. factory builds element i's
// object; mapFn assigns elements to PEs (nil means round-robin).
func (rt *Runtime) NewArray(name string, n int, factory func(i int) Chare, mapFn func(i int) int) *Array {
	if n <= 0 {
		panic("charm: array needs at least one element")
	}
	if _, dup := rt.arrays[name]; dup {
		panic("charm: duplicate array " + name)
	}
	if mapFn == nil {
		mapFn = MapRoundRobin(rt.NumPEs())
	}
	arr := &Array{rt: rt, name: name, entries: make(map[string]*Entry)}
	for i := 0; i < n; i++ {
		pe := mapFn(i)
		if pe < 0 || pe >= rt.NumPEs() {
			panic(fmt.Sprintf("charm: element %d mapped to invalid PE %d", i, pe))
		}
		arr.elems = append(arr.elems, &Element{arr: arr, Index: i, PE: pe, Obj: factory(i)})
	}
	rt.arrays[name] = arr
	return arr
}

// Name returns the array name.
func (a *Array) Name() string { return a.name }

// Len returns the number of elements.
func (a *Array) Len() int { return len(a.elems) }

// Elem returns element i.
func (a *Array) Elem(i int) *Element {
	if i < 0 || i >= len(a.elems) {
		panic(fmt.Sprintf("charm: array %s has no element %d", a.name, i))
	}
	return a.elems[i]
}

// Register declares an entry method on the array. It panics on
// duplicates, mirroring charmxi rejecting duplicate entry names.
func (a *Array) Register(e Entry) *Entry {
	if e.Name == "" || e.Fn == nil {
		panic("charm: entry needs a name and a function")
	}
	if _, dup := a.entries[e.Name]; dup {
		panic("charm: duplicate entry " + e.Name + " on array " + a.name)
	}
	if e.Prefetch && e.Deps == nil {
		panic("charm: [prefetch] entry " + e.Name + " must declare data dependences")
	}
	ent := &e
	a.entries[e.Name] = ent
	return ent
}

// Entry looks up a registered entry method.
func (a *Array) Entry(name string) *Entry {
	e, ok := a.entries[name]
	if !ok {
		panic("charm: unknown entry " + name + " on array " + a.name)
	}
	return e
}

// Send delivers msg data to element idx's entry method after the
// runtime's message latency. from is the sending element index (-1 from
// main). Send never blocks; it may be called from entry methods, the
// main process, or engine callbacks.
func (a *Array) Send(from, idx int, entry *Entry, data interface{}) {
	el := a.Elem(idx)
	rt := a.rt
	now := rt.Engine().Now()
	t := &Task{
		Elem:        el,
		Entry:       entry,
		Seq:         rt.taskSeq,
		EnqueueTime: now,
		msg:         Message{Data: data, From: from, SentAt: now},
	}
	t.Msg = &t.msg
	rt.taskSeq++
	if entry.Deps != nil {
		t.Deps = entry.Deps(el, t.Msg)
	}
	if entry.Prefetch && rt.interceptor != nil {
		rt.interceptor.TaskCreated(t)
	}
	if rt.Observed() {
		rt.note(EvSend, 0, 0, t, 0)
	}
	rt.Stats.MessagesSent++
	rt.sent.PushBack(sentTask{rt.PE(el.PE), t})
	rt.Engine().After(rt.params.MsgLatency, rt.deliverFn)
}

// Broadcast sends data to every element's entry method.
func (a *Array) Broadcast(from int, entry *Entry, data interface{}) {
	for i := range a.elems {
		a.Send(from, i, entry, data)
	}
}
