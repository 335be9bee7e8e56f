package main

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// sampleCapture is X11's committed Small sample capture.
var sampleCapture = filepath.Join("..", "..", "internal", "trace", "testdata", "x11-small.jsonl")

// TestReplayGolden pins the bytes the replay path prints for the sample
// capture: the tune artifact, a completed what-if under another victim
// policy and a what-if abandoned at its bound.
func TestReplayGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"tune", []string{"tune", "-o", "-"},
			"41a3c4fcad40c9f9c82332afbd5e277a5493fd4c028a96c00c5c79e7fd247b4d"},
		{"whatif lookahead", []string{"whatif", "-evict-policy", "lookahead"},
			"333664fdfa62880b69a77beddb31e92d539ab99d576e9bd6e4c9376056309fa2"},
		{"whatif abandoned", []string{"whatif", "-strategy", "single", "-abandon-above", "5"},
			"d82ca2a5a9267f9225ab1a7f5c85772946be535430b81184f7944128a76c712a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := exec(append(tc.args, sampleCapture)...)
			if code != 0 {
				t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("stdout sha256 %s, want %s\n%s", got, tc.want, out)
			}
		})
	}
}
