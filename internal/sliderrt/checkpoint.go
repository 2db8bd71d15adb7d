package sliderrt

import (
	"fmt"
	"io"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/persist"
)

// checkpointVersion guards the on-disk format. Version 2 carries payload
// state as flat byte blobs (internal/flatenc via persist frames) inside
// the gob-framed metadata. Version 1, which carried live Payload maps,
// is no longer restorable.
const checkpointVersion = 2

// checkpointState is the serialized form of a Runtime between runs: the
// window bookkeeping plus, per partition, the minimal window state from
// which the aggregation structure is rebuilt on restore.
type checkpointState struct {
	Version int
	Mode    Mode
	Engine  Engine
	// Backend records the resolved aggregation backend: it decides how a
	// partition's state is interpreted (window order for daba, leaf-position
	// order plus Victim for rotating). A frame without one is malformed.
	Backend       Backend
	BucketSplits  int
	WindowBuckets int
	Seq           uint64
	WindowLo      uint64
	Live          int
	Parts         int
	// Finger-tree (out-of-order) window ledger: splits per live bucket in
	// window order, and the in-order bucket clock the watermark is
	// computed from. Nil/zero for every other backend.
	BucketSizes []int
	BucketSeq   uint64
	Partitions  []partCheckpoint
}

// partCheckpoint holds one partition's window state (core.WindowState)
// with payloads as flat frames: persist.EncodePayload for single payloads,
// persist.EncodePayloadSet for sequences. Only the field group of the
// partition's backend is populated.
type partCheckpoint struct {
	// Coalescing: root and pending C′.
	HasRoot     bool
	FlatRoot    []byte
	HasPending  bool
	FlatPending []byte
	// Fixed-width backends: buckets, and the rotating tree's victim.
	FlatBuckets []byte
	Victim      int
	// Folding, randomized folding, strawman: leaves and their IDs.
	FlatLeaves []byte
	LeafIDs    []uint64
}

// encode fills the checkpoint from a window snapshot.
func (pc *partCheckpoint) encode(st core.WindowState[Payload]) error {
	pc.HasRoot, pc.HasPending = st.HasRoot, st.HasPending
	pc.Victim, pc.LeafIDs = st.Victim, st.IDs
	var err error
	if st.HasRoot {
		if pc.FlatRoot, err = persist.EncodePayload(st.Root); err != nil {
			return err
		}
	}
	if st.HasPending {
		if pc.FlatPending, err = persist.EncodePayload(st.Pending); err != nil {
			return err
		}
	}
	if st.Buckets != nil {
		if pc.FlatBuckets, err = persist.EncodePayloadSet(st.Buckets); err != nil {
			return err
		}
	}
	if st.Leaves != nil {
		pc.FlatLeaves, err = persist.EncodePayloadSet(st.Leaves)
	}
	return err
}

// decode rebuilds the window snapshot a checkpoint was encoded from.
func (pc *partCheckpoint) decode() (core.WindowState[Payload], error) {
	st := core.WindowState[Payload]{
		HasRoot: pc.HasRoot, HasPending: pc.HasPending,
		Victim: pc.Victim, IDs: pc.LeafIDs,
	}
	var err error
	if pc.HasRoot {
		if st.Root, err = persist.DecodePayload(pc.FlatRoot); err != nil {
			return st, err
		}
	}
	if pc.HasPending {
		if st.Pending, err = persist.DecodePayload(pc.FlatPending); err != nil {
			return st, err
		}
	}
	if pc.FlatBuckets != nil {
		if st.Buckets, err = persist.DecodePayloadSet(pc.FlatBuckets); err != nil {
			return st, err
		}
	}
	if pc.FlatLeaves != nil {
		st.Leaves, err = persist.DecodePayloadSet(pc.FlatLeaves)
	}
	return st, err
}

// Checkpoint serializes the runtime's window state so that processing can
// resume after a driver crash or restart (Restore). Application value
// types stored in payloads must be registered with persist.RegisterType
// first. Checkpointing between runs captures a consistent state: split
// processing's background step always completes within Advance.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if !rt.started {
		return ErrNotInitial
	}
	st := checkpointState{
		Version:       checkpointVersion,
		Mode:          rt.cfg.Mode,
		Engine:        rt.cfg.Engine,
		Backend:       rt.backend,
		BucketSplits:  rt.cfg.BucketSplits,
		WindowBuckets: rt.cfg.WindowBuckets,
		Seq:           rt.seq,
		WindowLo:      rt.windowLo,
		Live:          rt.live,
		Parts:         rt.parts,
		BucketSizes:   append([]int(nil), rt.bucketSizes...),
		BucketSeq:     rt.bucketSeq,
		Partitions:    make([]partCheckpoint, rt.parts),
	}
	for p, win := range rt.windows {
		if err := st.Partitions[p].encode(win.Snapshot()); err != nil {
			return fmt.Errorf("sliderrt: checkpoint partition %d: %w", p, err)
		}
	}
	frame, err := persist.Encode(st)
	if err != nil {
		return fmt.Errorf("sliderrt: checkpoint: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("sliderrt: checkpoint write: %w", err)
	}
	return nil
}

// Restore reconstructs a runtime from a checkpoint produced by
// Checkpoint. The job and configuration must match the checkpointed
// runtime's (mode, engine, and bucket geometry are verified). The
// aggregation structures are rebuilt from the persisted window state; the
// next Advance continues the window where the checkpoint left it. A
// malformed checkpoint is refused with an error.
func Restore(job *mapreduce.Job, cfg Config, r io.Reader) (*Runtime, error) {
	frame, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sliderrt: restore read: %w", err)
	}
	var st checkpointState
	if err := persist.Decode(frame, &st); err != nil {
		return nil, fmt.Errorf("sliderrt: restore: %w", err)
	}
	if st.Version != checkpointVersion {
		return nil, fmt.Errorf("sliderrt: restore: unsupported checkpoint version %d", st.Version)
	}
	rt, err := New(job, cfg)
	if err != nil {
		return nil, err
	}
	if rt.cfg.Mode != st.Mode || rt.cfg.Engine != st.Engine {
		return nil, fmt.Errorf("sliderrt: restore: configuration mismatch (checkpoint %v/%v, config %v/%v)",
			st.Mode, st.Engine, rt.cfg.Mode, rt.cfg.Engine)
	}
	if rt.cfg.Mode == Fixed &&
		(rt.cfg.BucketSplits != st.BucketSplits || rt.cfg.WindowBuckets != st.WindowBuckets) {
		return nil, fmt.Errorf("sliderrt: restore: bucket geometry mismatch")
	}
	if st.Parts != rt.parts || len(st.Partitions) != rt.parts {
		return nil, fmt.Errorf("sliderrt: restore: partition count mismatch (checkpoint %d with %d states, job %d)",
			st.Parts, len(st.Partitions), rt.parts)
	}
	if st.Backend == BackendAuto {
		return nil, fmt.Errorf("sliderrt: restore: checkpoint records no backend")
	}
	if st.Backend != rt.backend {
		// The checkpointed runtime ran a different backend than this
		// configuration resolves to (a pinned writer). An explicit
		// conflicting override is an error; under BackendAuto the restore
		// follows the checkpoint, subject to the same property gates as
		// New.
		if cfg.Backend != BackendAuto {
			return nil, fmt.Errorf("%w: restore: backend mismatch (checkpoint %v, config %v)",
				ErrBadBackend, st.Backend, rt.backend)
		}
		probe := rt.cfg
		probe.Backend = st.Backend
		if _, err := probe.resolveBackend(job); err != nil {
			return nil, fmt.Errorf("sliderrt: restore: %w", err)
		}
		rt.backend = st.Backend
	}
	if rt.backend == BackendFingerTree {
		if err := checkLedger(st.BucketSizes, st.Live); err != nil {
			return nil, err
		}
		rt.bucketSizes, rt.bucketSeq = st.BucketSizes, st.BucketSeq
	}
	rt.windows = rt.newWindows()
	for p, win := range rt.windows {
		ws, err := st.Partitions[p].decode()
		if err == nil && rt.backend == BackendFingerTree && len(ws.Buckets) != len(st.BucketSizes) {
			err = fmt.Errorf("bucket ledger has %d entries for %d buckets", len(st.BucketSizes), len(ws.Buckets))
		}
		if err == nil {
			err = win.Restore(ws)
		}
		if err != nil {
			return nil, fmt.Errorf("sliderrt: restore partition %d: %w", p, err)
		}
	}
	rt.seq = st.Seq
	rt.windowLo = st.WindowLo
	rt.live = st.Live
	rt.publishWindowGauges()
	rt.started = true
	return rt, nil
}

// checkLedger validates a finger-tree bucket ledger: every bucket holds
// at least one split, and the sizes sum to the live split count.
func checkLedger(sizes []int, live int) error {
	sum := 0
	for _, sz := range sizes {
		if sz <= 0 || sz > live-sum {
			return fmt.Errorf("sliderrt: restore: bucket ledger does not sum to %d live splits", live)
		}
		sum += sz
	}
	if sum != live {
		return fmt.Errorf("sliderrt: restore: bucket ledger sums to %d, not %d live splits", sum, live)
	}
	return nil
}
