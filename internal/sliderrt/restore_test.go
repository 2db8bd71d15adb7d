package sliderrt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"slider/internal/persist"
)

// restoreConfigs are the configurations the malformed-checkpoint table
// and FuzzRestore checkpoint and restore under: every backend, plus the
// split-processing variants of the two trees that have one.
var restoreConfigs = []Config{
	{Mode: Append},
	{Mode: Append, SplitProcessing: true},
	{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4},
	{Mode: Fixed, Backend: BackendRotating, BucketSplits: 2, WindowBuckets: 4},
	{Mode: Fixed, Backend: BackendRotating, SplitProcessing: true, BucketSplits: 2, WindowBuckets: 4},
	{Mode: Fixed, AllowedLateness: 4, BucketSplits: 2, WindowBuckets: 4},
	{Mode: Variable},
	{Mode: Variable, Backend: BackendRandomizedFolding, Seed: 11},
	{Mode: Variable, Engine: Strawman},
}

// checkpointFor drives a runtime under cfg through a few slides (a late
// bucket included on the finger tree) and returns its checkpoint frame.
func checkpointFor(t testing.TB, cfg Config) []byte {
	t.Helper()
	cfg.Memo = testMemoConfig()
	rt, err := New(wordCountJob(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 8, 1, 5)); err != nil {
		t.Fatal(err)
	}
	drop := 2
	if cfg.Mode == Append {
		drop = 0
	}
	if _, err := rt.Advance(drop, genSplits(8, 2, 1, 5)); err != nil {
		t.Fatal(err)
	}
	if cfg.AllowedLateness > 0 {
		if _, err := rt.AdvanceLate(2, genSplits(10, 1, 1, 5)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRefusesMalformedCheckpoint feeds Restore well-framed
// checkpoints whose contents contradict themselves; each must be refused
// with an error, never a panic or a silently inconsistent runtime.
func TestRestoreRefusesMalformedCheckpoint(t *testing.T) {
	finger := restoreConfigs[5]
	cases := []struct {
		name   string
		cfg    Config
		mutate func(st *checkpointState)
	}{
		{"partitions shorter than parts", restoreConfigs[6], func(st *checkpointState) {
			st.Partitions = st.Partitions[:1]
		}},
		{"randomized leaf IDs short", restoreConfigs[7], func(st *checkpointState) {
			pc := &st.Partitions[0]
			pc.LeafIDs = pc.LeafIDs[:len(pc.LeafIDs)-1]
		}},
		{"strawman leaf IDs short", restoreConfigs[8], func(st *checkpointState) {
			pc := &st.Partitions[0]
			pc.LeafIDs = pc.LeafIDs[:len(pc.LeafIDs)-1]
		}},
		{"finger ledger count disagrees with buckets", finger, func(st *checkpointState) {
			// Same live total, one entry too many: a 2-split bucket
			// recorded as two 1-split buckets.
			sizes := []int{1, 1}
			st.BucketSizes = append(sizes, st.BucketSizes[1:]...)
		}},
		{"finger ledger sum is not Live", finger, func(st *checkpointState) {
			st.BucketSizes[0]++
		}},
		{"no backend recorded", restoreConfigs[3], func(st *checkpointState) {
			st.Backend = BackendAuto
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st checkpointState
			if err := persist.Decode(checkpointFor(t, tc.cfg), &st); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&st)
			frame, err := persist.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Memo = testMemoConfig()
			if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame)); err == nil {
				t.Fatal("malformed checkpoint accepted")
			}
		})
	}
}

// sealFrame wraps a gob body in a persist frame (magic | len | crc32 |
// body) with a valid checksum, so fuzzed bodies reach the decoders.
func sealFrame(body []byte) []byte {
	frame := make([]byte, 16, 16+len(body))
	copy(frame, "sld1")
	binary.LittleEndian.PutUint64(frame[4:12], uint64(len(body)))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// FuzzRestore mutates the gob body of real checkpoints from every backend
// and restores it under the configuration selected by cfgIdx. Every input
// must either be refused with an error or yield a runtime whose
// StateFingerprint survives one more Checkpoint→Restore round trip.
func FuzzRestore(f *testing.F) {
	for i, cfg := range restoreConfigs {
		f.Add(uint8(i), checkpointFor(f, cfg)[16:])
	}
	f.Fuzz(func(t *testing.T, cfgIdx uint8, body []byte) {
		cfg := restoreConfigs[int(cfgIdx)%len(restoreConfigs)]
		cfg.Memo = testMemoConfig()
		rt, err := Restore(wordCountJob(), cfg, bytes.NewReader(sealFrame(body)))
		if err != nil {
			return
		}
		want := rt.StateFingerprint()
		var buf bytes.Buffer
		if err := rt.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint of a restored runtime: %v", err)
		}
		again, err := Restore(wordCountJob(), cfg, &buf)
		if err != nil {
			t.Fatalf("restore of a re-checkpointed runtime: %v", err)
		}
		if got := again.StateFingerprint(); got != want {
			t.Fatalf("fingerprint %#x after round trip, want %#x", got, want)
		}
	})
}
