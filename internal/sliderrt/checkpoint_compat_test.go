package sliderrt

import (
	"bytes"
	"testing"

	"slider/internal/persist"
)

// TestStateFingerprint pins the canonical-hash contract: identical
// logical state fingerprints identically across independent runtimes and
// parallelism levels, a checkpoint/restore round trip preserves the
// fingerprint, and advancing the window changes it.
func TestStateFingerprint(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()}
	build := func(par int) *Runtime {
		c := cfg
		c.Parallelism = par
		rt, err := New(wordCountJob(), c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Initial(genSplits(0, 8, 4, 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Advance(2, genSplits(8, 2, 4, 7)); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := build(1), build(4)
	if a.StateFingerprint() != b.StateFingerprint() {
		t.Fatalf("identical state fingerprints differ: %#x vs %#x (par 1 vs 4)",
			a.StateFingerprint(), b.StateFingerprint())
	}

	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.StateFingerprint() != a.StateFingerprint() {
		t.Fatalf("restore changed the fingerprint: %#x vs %#x",
			restored.StateFingerprint(), a.StateFingerprint())
	}

	if _, err := a.Advance(2, genSplits(10, 2, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if a.StateFingerprint() == b.StateFingerprint() {
		t.Fatal("advancing the window did not change the fingerprint")
	}
}

// TestRestoreRejectsFutureVersion keeps the version gate honest.
func TestRestoreRejectsFutureVersion(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Append, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var st checkpointState
	if err := persist.Decode(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	st.Version = checkpointVersion + 1
	frame, err := persist.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame)); err == nil {
		t.Fatal("future checkpoint version accepted")
	}
}
