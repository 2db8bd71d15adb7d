package sliderrt

import (
	"fmt"

	"slider/internal/core"
	"slider/internal/mapreduce"
)

// Backend names the aggregation structure behind a runtime's reduce
// phase. The window mode picks the family (§3–§4); the backend picks
// the concrete structure inside it. BackendAuto — the default — lets
// the selection layer resolve the cheapest legal structure for the
// query: combiner properties (from the job declaration, property-tested
// by mapreduce.CheckJob) plus window pattern.
//
// The selection matrix:
//
//	Mode      SplitProcessing  Commutative  → backend
//	Fixed     no               any          → BackendDaba (O(1)/slide)
//	Fixed + AllowedLateness>0: any          → BackendFingerTree
//	                                          (O(K + log w) bulk/late ops)
//	Fixed     yes              yes          → BackendRotating (O(log N))
//	Fixed     yes              no           → error
//	Append    —                any          → BackendCoalescing
//	Variable  —                any          → BackendFolding
//	Engine Strawman              any        → BackendStrawman
//
// An explicit Backend overrides the auto pick but is still validated
// against the mode and the combiner: a non-commutative combiner can
// never be routed to the rotating tree (its circular buckets re-order
// window age relative to tree position), and the DABA backend — strictly
// in-order — never requires commutativity but cannot serve split
// processing or variable-width windows. Out-of-order jobs (a positive
// Config.AllowedLateness) require the finger tree: it is the only
// backend whose window is a searchable structure a late record can land
// in the middle of, so any other explicit backend is ErrBadBackend.
type Backend int

// Backends.
const (
	// BackendAuto resolves to the cheapest legal backend for the query.
	BackendAuto Backend = iota
	// BackendDaba is the DABA Lite worst-case O(1) in-order aggregator
	// (fixed-width windows; associative combiner suffices).
	BackendDaba
	// BackendRotating is the rotating contraction tree of §4.1
	// (fixed-width windows; requires a commutative combiner; the only
	// backend supporting split processing in Fixed mode).
	BackendRotating
	// BackendCoalescing is the append-only coalescing tree of §4.2.
	BackendCoalescing
	// BackendFolding is the folding tree of §3.1 (variable windows).
	BackendFolding
	// BackendRandomizedFolding is the randomized folding tree of §3.2.
	BackendRandomizedFolding
	// BackendStrawman is the memoization-only baseline of §2.
	BackendStrawman
	// BackendFingerTree is the FiBA-style finger-tree aggregator for
	// out-of-order fixed-width windows: late records land at their true
	// window position (InsertAt) and K-bucket evictions/insertions cost
	// O(K + log w) combines (BulkEvict/BulkInsert). The only backend
	// serving jobs with Config.AllowedLateness > 0; also legal as an
	// explicit choice for in-order Fixed jobs. Appended after the
	// original six so persisted checkpoint backend values stay stable.
	BackendFingerTree
)

// String names the backend as it appears in flags and logs.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendDaba:
		return "daba"
	case BackendRotating:
		return "rotating"
	case BackendCoalescing:
		return "coalescing"
	case BackendFolding:
		return "folding"
	case BackendRandomizedFolding:
		return "randomized-folding"
	case BackendStrawman:
		return "strawman"
	case BackendFingerTree:
		return "fingertree"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name as printed by String (the daemons'
// -backend flag).
func ParseBackend(s string) (Backend, error) {
	for _, b := range []Backend{BackendAuto, BackendDaba, BackendRotating,
		BackendCoalescing, BackendFolding, BackendRandomizedFolding, BackendStrawman,
		BackendFingerTree} {
		if s == b.String() {
			return b, nil
		}
	}
	return 0, fmt.Errorf("sliderrt: unknown backend %q", s)
}

// resolveBackend maps the configuration and the job's declared combiner
// properties to a concrete backend, validating an explicit override
// against both.
func (c *Config) resolveBackend(job *mapreduce.Job) (Backend, error) {
	if c.Engine == Strawman {
		switch c.Backend {
		case BackendAuto, BackendStrawman:
			return BackendStrawman, nil
		}
		return 0, fmt.Errorf("%w: engine Strawman cannot run backend %v", ErrBadBackend, c.Backend)
	}
	switch c.Mode {
	case Append:
		switch c.Backend {
		case BackendAuto, BackendCoalescing:
			return BackendCoalescing, nil
		}
		return 0, fmt.Errorf("%w: Append mode requires the coalescing backend, not %v", ErrBadBackend, c.Backend)
	case Variable:
		switch c.Backend {
		case BackendAuto, BackendFolding:
			return BackendFolding, nil
		case BackendRandomizedFolding:
			return BackendRandomizedFolding, nil
		}
		return 0, fmt.Errorf("%w: Variable mode requires a folding backend, not %v", ErrBadBackend, c.Backend)
	case Fixed:
		if c.AllowedLateness > 0 {
			// Out-of-order job: late records must land mid-window, which
			// only the finger tree's searchable structure supports.
			if c.SplitProcessing {
				return 0, fmt.Errorf("%w: split processing is a rotating-tree feature; out-of-order windows use the finger tree", ErrBadBackend)
			}
			switch c.Backend {
			case BackendAuto, BackendFingerTree:
				return BackendFingerTree, nil
			}
			return 0, fmt.Errorf("%w: out-of-order windows (AllowedLateness=%d) require the finger-tree backend, not %v", ErrBadBackend, c.AllowedLateness, c.Backend)
		}
		switch c.Backend {
		case BackendAuto:
			if c.SplitProcessing {
				// Split processing pre-combines a bucket's tree siblings —
				// a rotating-tree feature.
				if !job.Commutative {
					return 0, fmt.Errorf("%w: job %q: split processing needs the rotating tree, which requires a commutative combiner", ErrBadBackend, job.Name)
				}
				return BackendRotating, nil
			}
			// Fixed-width, in-order, no split processing: the O(1) fast
			// path. In-order aggregation never re-orders buckets, so a
			// non-commutative (merely associative) combiner is fine.
			return BackendDaba, nil
		case BackendDaba:
			if c.SplitProcessing {
				return 0, fmt.Errorf("%w: split processing is a rotating-tree feature; the DABA backend does not support it", ErrBadBackend)
			}
			return BackendDaba, nil
		case BackendRotating:
			if !job.Commutative {
				return 0, fmt.Errorf("%w: job %q: rotating trees require a commutative combiner", ErrBadBackend, job.Name)
			}
			return BackendRotating, nil
		case BackendFingerTree:
			// Legal for in-order fixed windows too: order-preserving, so an
			// associative combiner suffices; split processing stays a
			// rotating-tree feature.
			if c.SplitProcessing {
				return 0, fmt.Errorf("%w: split processing is a rotating-tree feature; the finger-tree backend does not support it", ErrBadBackend)
			}
			return BackendFingerTree, nil
		}
		return 0, fmt.Errorf("%w: Fixed mode requires the daba, rotating, or fingertree backend, not %v", ErrBadBackend, c.Backend)
	}
	return 0, ErrBadMode
}

// Backend reports the resolved backend.
func (rt *Runtime) Backend() Backend { return rt.backend }

// newWindows builds one window per partition for the resolved backend,
// each wired to its share of the parallelism budget so partition-level
// and intra-tree concurrency compose. Coalescing windows have no internal
// levels: their fold-up of new splits is parallelized in foldPayloads.
func (rt *Runtime) newWindows() []core.Window[Payload] {
	treePar := rt.treeParallelism()
	rt.combines = make([]int64, rt.parts)
	windows := make([]core.Window[Payload], rt.parts)
	for p := range windows {
		merge := rt.mergeFor(p)
		switch rt.backend {
		case BackendStrawman:
			windows[p] = core.NewStrawmanWindow(merge, treePar)
		case BackendCoalescing:
			fold := func(ps []Payload) Payload { return rt.foldPayloads(p, ps) }
			windows[p] = core.NewCoalescingWindow(merge, fold, rt.cfg.SplitProcessing)
		case BackendDaba:
			windows[p] = core.NewDabaWindow(merge, rt.cfg.WindowBuckets)
		case BackendFingerTree:
			windows[p] = core.NewFingerWindow(merge, core.BuggifyNone)
		case BackendRotating:
			windows[p] = core.NewRotatingWindow(merge, rt.cfg.WindowBuckets, treePar, rt.cfg.SplitProcessing, core.BuggifyNone)
		case BackendRandomizedFolding:
			windows[p] = core.NewRandomizedWindow(merge, rt.cfg.Seed+uint64(p)+1, treePar)
		default: // BackendFolding
			opts := []core.FoldingOption[Payload]{core.WithParallelism[Payload](treePar)}
			if factor := rt.cfg.RebuildFactor; factor < 0 {
				opts = append(opts, core.WithRebuildFactor[Payload](0))
			} else if factor > 0 {
				opts = append(opts, core.WithRebuildFactor[Payload](factor))
			}
			windows[p] = core.NewFoldingWindow(merge, opts...)
		}
	}
	return windows
}
