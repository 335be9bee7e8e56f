package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/hetmem/hetmem/internal/exp"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames  []string
		layer   string
		handoff bool
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", false},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.goready", "runtime.chansend1",
			layerPrefix + "sim.(*Engine).grant", layerPrefix + "sim.(*Engine).Run", "main.main"}, "sim", true},
		{[]string{layerPrefix + "memsim.(*System).reallocate", layerPrefix + "core.(*Manager).fetch"}, "memsim", false},
		{[]string{"runtime.mallocgc", layerPrefix + "core.(*Manager).fetch.func1"}, "core", false},
		{[]string{"encoding/json.Marshal", "main.(*hetmemd).submit", "main.main"}, "bench", false},
	} {
		if got := layerOf(tc.frames); got != tc.layer {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.layer)
		}
		if got := isHandoff(tc.frames); got != tc.handoff {
			t.Errorf("isHandoff(%v) = %v, want %v", tc.frames, got, tc.handoff)
		}
	}
}

// TestProfileAttribution profiles a real Small-scale Fig 8 pass and
// decodes it with the benchmark's own decoder.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pass := fig8(exp.Small).pass
	for start := time.Now(); time.Since(start) < 1500*time.Millisecond; {
		pass(nil, 0)
	}
	pprof.StopCPUProfile()
	samples, err := readProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile has no samples")
	}
	shares := cpuShares(samples)
	sum := shares["other"]
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	for _, l := range []string{"sim", "memsim"} {
		if shares[l] == 0 {
			t.Errorf("no CPU attributed to %s: %v", l, shares)
		}
	}
	if shares["sim.handoff"] > shares["sim"] {
		t.Errorf("handoff share %v exceeds sim's %v", shares["sim.handoff"], shares["sim"])
	}
}
