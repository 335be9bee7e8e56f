package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// These pins hold byte-level outputs that bench-check does not compare:
// the adaptive run's decision trace and audit snapshot, its capture, and
// the Projections span logs. WriteJSON's unstable sort makes a span log
// depend on the order spans were recorded, so the span-log pins also pin
// the recording order.

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunAdaptAuditGolden: the adaptive, audited Small stencil run
// prints exactly the committed decision trace and audit snapshot.
func TestRunAdaptAuditGolden(t *testing.T) {
	code, out, errb := exec("run", "-scale", "small", "-mode", "single", "-adapt", "-audit")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "run-small-single-adapt-audit.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("stdout differs from testdata/run-small-single-adapt-audit.golden:\n%s", out)
	}
}

// TestRunAdaptTraceGolden: the same run's capture keeps its bytes,
// adapt and retune events included.
func TestRunAdaptTraceGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	code, _, errb := exec("run", "-scale", "small", "-mode", "single", "-adapt", "-audit", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "bdb9b80af17c08644a1790dcfc426853e6de739d9f609f19f446017c5a16f556"
	if sum := sha256Hex(got); sum != want {
		t.Fatalf("capture sha256 %s, want %s", sum, want)
	}
}

// TestProjectionsSpanLogsGolden: the Figs 5-6 span logs keep their
// bytes.
func TestProjectionsSpanLogsGolden(t *testing.T) {
	dir := t.TempDir()
	code, _, errb := exec("projections", "-scale", "small", "-json", dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	for name, want := range map[string]string{
		"naive.json":               "b68322d974d2e81094318b11da5e9facbb9abdffd210c5b66c5b2050431a0a1a",
		"single-io-thread.json":    "d0672169924c6f63f8fe3fa4af103319338181dbb6e09001341b3c727dcb6621",
		"no-io-thread.json":        "ae6dda7d610ecc4b8bbbcb73dfac8f6acbd2cf74ff8a077fefa8a9e18f84c7ea",
		"multiple-io-threads.json": "9b8b8fd1f17b31ee80d3b87eda481c2856c6a272806491ee354fe9a52aa3bd3b",
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256Hex(got); sum != want {
			t.Errorf("%s sha256 %s, want %s", name, sum, want)
		}
	}
}
