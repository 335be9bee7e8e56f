package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickEventOrdering: for any random set of event times, events
// fire in non-decreasing time order, same-time events fire in
// insertion order, and the clock never goes backwards.
func TestQuickEventOrdering(t *testing.T) {
	check := func(rawTimes []uint16) bool {
		e := NewEngine(1)
		type fired struct {
			t   Time
			seq int
		}
		var log []fired
		for i, rt := range rawTimes {
			i := i
			ts := Time(rt) / 100
			e.Schedule(ts, func() {
				log = append(log, fired{t: e.Now(), seq: i})
			})
		}
		e.RunAll()
		if len(log) != len(rawTimes) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].t < log[i-1].t {
				return false
			}
			if log[i].t == log[i-1].t && log[i].seq < log[i-1].seq {
				return false
			}
		}
		// The firing times are exactly the scheduled times, sorted.
		want := make([]Time, len(rawTimes))
		for i, rt := range rawTimes {
			want[i] = Time(rt) / 100
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if log[i].t != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSleepAccumulates: any sequence of random sleeps in one
// process ends at exactly the sum of the sleeps.
func TestQuickSleepAccumulates(t *testing.T) {
	check := func(raw []uint8) bool {
		e := NewEngine(1)
		var want Time
		for _, r := range raw {
			want += Time(r) / 16
		}
		ok := false
		e.Spawn("sleeper", func(p *Proc) {
			for _, r := range raw {
				p.Sleep(Time(r) / 16)
			}
			ok = p.Now() == want
		})
		e.RunAll()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMutexSerialises: random lock-hold durations across random
// process counts always serialise: total time equals the sum of the
// critical sections, and the lock ends free.
func TestQuickMutexSerialises(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		var m Mutex
		n := 1 + r.Intn(10)
		var want Time
		for i := 0; i < n; i++ {
			d := Time(1+r.Intn(100)) / 10
			want += d
			e.Spawn("w", func(p *Proc) {
				m.Lock(p)
				p.Sleep(d)
				m.Unlock(p)
			})
		}
		end := e.RunAll()
		defer e.Close()
		return end == want && !m.Locked() && e.LiveProcs() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
