package core

import "fmt"

// Window is the one insert/evict/query surface every aggregator in this
// package exposes — the five contraction trees, DABA Lite, and the finger
// tree — so the contraction phase drives all of them the same way. A unit
// is whatever the aggregator keeps per window position: a bucket of w
// splits for the fixed-width structures (rotating, DABA, finger tree), a
// single split otherwise; the coalescing window folds each call's units
// into one appended payload C′.
type Window[T any] interface {
	// Build performs the initial run over the window's first units,
	// oldest first.
	Build(units []Item[T]) error
	// Slide evicts the drop oldest units and appends add, oldest first.
	Slide(drop int, add []Item[T]) error
	// Roots returns the payloads the run's final reduce consumes, in
	// window order: the combined root, nothing for an empty window, or —
	// after a split-processing foreground step — the uncombined payloads
	// that step hands over. Some aggregators combine at query time (DABA
	// folds its front with its back sum), so call it once per run.
	Roots() []T
	// Stats returns the cumulative work counters.
	Stats() Stats
	// Shape returns the structural snapshot served to introspection.
	Shape() TreeShape
	// FingerprintWith hashes the materialized structure deterministically
	// (see trace.go).
	FingerprintWith(fp func(T) uint64) uint64
	// ForEachPayload visits every materialized payload (space accounting).
	ForEachPayload(fn func(T))
	// Snapshot returns the minimal state the window is rebuilt from.
	Snapshot() WindowState[T]
	// Restore replaces the window with a snapshot's state. Work counters
	// restart, so a restored window matches a fresh one restored from the
	// same snapshot. A state the window cannot hold is an error.
	Restore(st WindowState[T]) error
}

// OutOfOrderWindow is a Window whose units can also land mid-window and
// leave or arrive in bulk. Only the finger tree implements it.
type OutOfOrderWindow[T any] interface {
	Window[T]
	// InsertAt lands v as a new unit at window position pos (0 = oldest).
	InsertAt(pos int, v T) error
	// BulkEvict drops the k oldest units in one operation.
	BulkEvict(k int) error
	// BulkInsert appends vs as the newest units in one operation.
	BulkInsert(vs []T) error
}

// SplitWindow is a Window with split processing (§4): Build and Slide run
// only the foreground step, and Background runs the pre-processing they
// deferred, off the critical path, before the next Slide. The rotating
// and coalescing windows implement it.
type SplitWindow[T any] interface {
	Window[T]
	// Background runs the deferred step and reports whether there was one.
	Background() (bool, error)
}

// WindowState is the restorable state of a Window. Each aggregator fills
// the one field group that describes it and ignores the others.
type WindowState[T any] struct {
	// Coalescing: the accumulated root, and a split-mode C′ awaiting its
	// background fold.
	Root       T
	HasRoot    bool
	Pending    T
	HasPending bool
	// Fixed-width windows: the raw buckets, oldest first — except the
	// rotating tree, which keeps leaf-position order with Victim marking
	// the oldest bucket.
	Buckets []T
	Victim  int
	// Leaf windows (folding, randomized folding, strawman): the live leaf
	// payloads in window order, and their identities where the structure
	// keys on them (randomized folding, strawman).
	Leaves []T
	IDs    []uint64
}

// Compile-time checks of the optional interfaces.
var (
	_ OutOfOrderWindow[int] = (*fingerWindow[int])(nil)
	_ SplitWindow[int]      = (*rotatingWindow[int])(nil)
	_ SplitWindow[int]      = (*coalescingWindow[int])(nil)
)

// payloadsOf strips the units' identities.
func payloadsOf[T any](units []Item[T]) []T {
	out := make([]T, len(units))
	for i, u := range units {
		out[i] = u.Payload
	}
	return out
}

// rootOf wraps a single root payload as Roots' result.
func rootOf[T any](root T, ok bool) []T {
	if !ok {
		return nil
	}
	return []T{root}
}

// itemsOf pairs leaf payloads with their identities.
func itemsOf[T any](st WindowState[T]) ([]Item[T], error) {
	if len(st.IDs) != len(st.Leaves) {
		return nil, fmt.Errorf("core: restore: %d leaf identities for %d leaves", len(st.IDs), len(st.Leaves))
	}
	items := make([]Item[T], len(st.Leaves))
	for i, p := range st.Leaves {
		items[i] = Item[T]{ID: st.IDs[i], Payload: p}
	}
	return items, nil
}

// fixedSlide checks a fixed-width slide: every evicted bucket is replaced.
func fixedSlide(drop, add int) error {
	if drop != add {
		return fmt.Errorf("core: fixed-width slide needs drop == add (got %d, %d)", drop, add)
	}
	return nil
}

// --- folding ------------------------------------------------------------

type foldingWindow[T any] struct {
	*FoldingTree[T]
	merge MergeFunc[T]
	opts  []FoldingOption[T]
}

// NewFoldingWindow returns the folding-tree window of §3.1.
func NewFoldingWindow[T any](merge MergeFunc[T], opts ...FoldingOption[T]) Window[T] {
	return &foldingWindow[T]{FoldingTree: NewFolding(merge, opts...), merge: merge, opts: opts}
}

func (w *foldingWindow[T]) Build(units []Item[T]) error {
	w.Init(payloadsOf(units))
	return nil
}

func (w *foldingWindow[T]) Slide(drop int, add []Item[T]) error {
	return w.FoldingTree.Slide(drop, payloadsOf(add))
}

func (w *foldingWindow[T]) Roots() []T { return rootOf(w.Root()) }

func (w *foldingWindow[T]) Snapshot() WindowState[T] {
	return WindowState[T]{Leaves: w.Payloads()}
}

func (w *foldingWindow[T]) Restore(st WindowState[T]) error {
	w.FoldingTree = NewFolding(w.merge, w.opts...)
	w.Init(st.Leaves)
	return nil
}

// --- randomized folding -------------------------------------------------

type randomizedWindow[T any] struct {
	*RandomizedFoldingTree[T]
	merge MergeFunc[T]
	seed  uint64
	par   int
}

// NewRandomizedWindow returns the randomized folding-tree window of §3.2;
// seed fixes its coin flips.
func NewRandomizedWindow[T any](merge MergeFunc[T], seed uint64, par int) Window[T] {
	w := &randomizedWindow[T]{merge: merge, seed: seed, par: par}
	w.reset()
	return w
}

func (w *randomizedWindow[T]) reset() {
	w.RandomizedFoldingTree = NewRandomizedFolding(w.merge, w.seed)
	w.SetParallelism(w.par)
}

func (w *randomizedWindow[T]) Build(units []Item[T]) error {
	w.Init(units)
	return nil
}

func (w *randomizedWindow[T]) Roots() []T { return rootOf(w.Root()) }

func (w *randomizedWindow[T]) Snapshot() WindowState[T] {
	st := WindowState[T]{}
	for _, it := range w.Items() {
		st.Leaves = append(st.Leaves, it.Payload)
		st.IDs = append(st.IDs, it.ID)
	}
	return st
}

func (w *randomizedWindow[T]) Restore(st WindowState[T]) error {
	items, err := itemsOf(st)
	if err != nil {
		return err
	}
	w.reset()
	w.Init(items)
	return nil
}

// --- strawman -----------------------------------------------------------

type strawmanWindow[T any] struct {
	*StrawmanTree[T]
	merge  MergeFunc[T]
	par    int
	leaves []Item[T]
}

// NewStrawmanWindow returns the memoization-only baseline window of §2,
// rebuilt over its whole leaf sequence on every slide.
func NewStrawmanWindow[T any](merge MergeFunc[T], par int) Window[T] {
	w := &strawmanWindow[T]{merge: merge, par: par}
	w.reset()
	return w
}

func (w *strawmanWindow[T]) reset() {
	w.StrawmanTree = NewStrawman(w.merge)
	w.SetParallelism(w.par)
}

func (w *strawmanWindow[T]) Build(units []Item[T]) error {
	w.leaves = append(w.leaves[:0], units...)
	w.StrawmanTree.Build(w.leaves)
	return nil
}

func (w *strawmanWindow[T]) Slide(drop int, add []Item[T]) error {
	if drop < 0 || drop > len(w.leaves) {
		return ErrUnderflow
	}
	w.leaves = append(w.leaves[:0], w.leaves[drop:]...)
	w.leaves = append(w.leaves, add...)
	w.StrawmanTree.Build(w.leaves)
	return nil
}

func (w *strawmanWindow[T]) Roots() []T { return rootOf(w.Root()) }

func (w *strawmanWindow[T]) Snapshot() WindowState[T] {
	st := WindowState[T]{}
	for _, it := range w.leaves {
		st.Leaves = append(st.Leaves, it.Payload)
		st.IDs = append(st.IDs, it.ID)
	}
	return st
}

func (w *strawmanWindow[T]) Restore(st WindowState[T]) error {
	items, err := itemsOf(st)
	if err != nil {
		return err
	}
	w.reset()
	return w.Build(items)
}

// --- rotating -----------------------------------------------------------

type rotatingWindow[T any] struct {
	*RotatingTree[T]
	split bool
	// Split processing: the foreground root of the last single-bucket
	// slide (what that run reduces), the bucket its background step
	// installs, and whether the background step still has to run.
	fg      T
	hasFg   bool
	bucket  T
	pending bool
}

// NewRotatingWindow returns the rotating-tree window of §4.1 over n
// buckets. With split, single-bucket slides run as a foreground merge
// against the pre-combined siblings, and Background installs the bucket.
func NewRotatingWindow[T any](merge MergeFunc[T], n, par int, split bool, bug Buggify) Window[T] {
	t := NewRotating(merge, n)
	t.SetParallelism(par)
	t.SetBuggify(bug)
	return &rotatingWindow[T]{RotatingTree: t, split: split}
}

func (w *rotatingWindow[T]) Build(units []Item[T]) error {
	w.hasFg = false
	if err := w.Init(payloadsOf(units)); err != nil {
		return err
	}
	w.pending = w.split
	return nil
}

func (w *rotatingWindow[T]) Slide(drop int, add []Item[T]) error {
	if err := fixedSlide(drop, len(add)); err != nil {
		return err
	}
	if w.split && len(add) == 1 {
		fg, err := w.RotateForeground(add[0].Payload)
		if err != nil {
			return err
		}
		w.fg, w.hasFg = fg, true
		w.bucket, w.pending = add[0].Payload, true
		return nil
	}
	w.hasFg = false
	for _, u := range add {
		if err := w.Rotate(u.Payload); err != nil {
			return err
		}
	}
	if w.split {
		// Multi-bucket slides fall back to in-place rotation; re-prepare
		// so the next single-bucket slide stays fast.
		return w.PrepareBackground()
	}
	return nil
}

func (w *rotatingWindow[T]) Background() (bool, error) {
	if !w.pending {
		return false, nil
	}
	w.pending = false
	if w.hasFg {
		return true, w.RotatingTree.Background(w.bucket)
	}
	return true, w.PrepareBackground()
}

func (w *rotatingWindow[T]) Roots() []T {
	if w.hasFg {
		return []T{w.fg}
	}
	return rootOf(w.Root())
}

func (w *rotatingWindow[T]) Snapshot() WindowState[T] {
	buckets, _ := w.BucketPayloads()
	return WindowState[T]{Buckets: buckets, Victim: w.Victim()}
}

func (w *rotatingWindow[T]) Restore(st WindowState[T]) error {
	w.hasFg, w.pending = false, false
	if err := w.RestoreAt(st.Buckets, st.Victim); err != nil {
		return err
	}
	if w.split {
		return w.PrepareBackground()
	}
	return nil
}

// --- DABA Lite ----------------------------------------------------------

type dabaWindow[T any] struct {
	*DabaLite[T]
}

// NewDabaWindow returns the DABA Lite in-order window over n buckets.
func NewDabaWindow[T any](merge MergeFunc[T], n int) Window[T] {
	return dabaWindow[T]{NewDaba(merge, n)}
}

func (w dabaWindow[T]) Build(units []Item[T]) error { return w.Init(payloadsOf(units)) }

func (w dabaWindow[T]) Slide(drop int, add []Item[T]) error {
	if err := fixedSlide(drop, len(add)); err != nil {
		return err
	}
	// Each bucket slide costs a bounded constant number of combines,
	// independent of the window width.
	for _, u := range add {
		if err := w.DabaLite.Slide(u.Payload); err != nil {
			return err
		}
	}
	return nil
}

func (w dabaWindow[T]) Roots() []T { return rootOf(w.Root()) }

func (w dabaWindow[T]) Snapshot() WindowState[T] {
	buckets, _ := w.BucketPayloads()
	return WindowState[T]{Buckets: buckets}
}

func (w dabaWindow[T]) Restore(st WindowState[T]) error { return w.DabaLite.Restore(st.Buckets) }

// --- finger tree --------------------------------------------------------

type fingerWindow[T any] struct {
	*FingerTree[T]
}

// NewFingerWindow returns the finger-tree window for out-of-order
// fixed-width windows. A Slide is one bulk eviction plus one bulk
// insertion: O(K + log w) combines for K buckets.
func NewFingerWindow[T any](merge MergeFunc[T], bug Buggify) Window[T] {
	t := NewFingerTree(merge)
	t.SetBuggify(bug)
	return fingerWindow[T]{t}
}

func (w fingerWindow[T]) Build(units []Item[T]) error { return w.Init(payloadsOf(units)) }

func (w fingerWindow[T]) Slide(drop int, add []Item[T]) error {
	if err := w.BulkEvict(drop); err != nil {
		return err
	}
	return w.BulkInsert(payloadsOf(add))
}

func (w fingerWindow[T]) Roots() []T { return rootOf(w.Root()) }

func (w fingerWindow[T]) Snapshot() WindowState[T] {
	buckets, _ := w.BucketPayloads()
	return WindowState[T]{Buckets: buckets}
}

func (w fingerWindow[T]) Restore(st WindowState[T]) error { return w.FingerTree.Restore(st.Buckets) }

// --- coalescing ---------------------------------------------------------

type coalescingWindow[T any] struct {
	*CoalescingTree[T]
	fold  func([]T) T
	split bool
	union []T // the last split-mode foreground step's reduce input
}

// NewCoalescingWindow returns the append-only coalescing window of §4.2.
// fold combines one call's units into the appended payload C′ (outside the
// tree's work counters). With split, Slide hands the reduce the union of
// the previous root and C′, and Background folds C′ into the root.
func NewCoalescingWindow[T any](merge MergeFunc[T], fold func([]T) T, split bool) Window[T] {
	return &coalescingWindow[T]{CoalescingTree: NewCoalescing(merge), fold: fold, split: split}
}

func (w *coalescingWindow[T]) Build(units []Item[T]) error {
	w.union = nil
	w.Append(w.fold(payloadsOf(units)))
	return nil
}

func (w *coalescingWindow[T]) Slide(drop int, add []Item[T]) error {
	if drop != 0 {
		return fmt.Errorf("core: append-only window cannot drop (drop=%d)", drop)
	}
	c := w.fold(payloadsOf(add))
	if w.split {
		w.union = w.AppendSplit(c)
		return nil
	}
	w.union = nil
	w.Append(c)
	return nil
}

func (w *coalescingWindow[T]) Background() (bool, error) {
	if !w.Pending() {
		return false, nil
	}
	w.CoalescingTree.Background()
	return true, nil
}

func (w *coalescingWindow[T]) Roots() []T {
	if w.union != nil {
		return w.union
	}
	return rootOf(w.Root())
}

func (w *coalescingWindow[T]) Snapshot() WindowState[T] {
	st := WindowState[T]{}
	st.Root, st.HasRoot = w.Root()
	st.Pending, st.HasPending = w.PendingPayload()
	return st
}

func (w *coalescingWindow[T]) Restore(st WindowState[T]) error {
	w.union = nil
	w.CoalescingTree.Restore(st.Root, st.HasRoot, st.Pending, st.HasPending)
	return nil
}
