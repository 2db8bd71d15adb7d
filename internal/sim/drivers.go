package sim

import (
	"fmt"

	"slider/internal/core"
)

// pay is the tree-layer payload: the ordered sequence of leaf IDs below a
// node. Merging is concatenation into a fresh slice (pure and alias-free,
// as the parallel engine requires), so the root payload is the exact leaf
// sequence the tree believes is in the window — the strongest possible
// differential signal against the from-scratch oracle.
type pay []uint64

// pmerge concatenates two payloads into a fresh slice.
func pmerge(a, b pay) pay {
	out := make(pay, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// pfp is an order-sensitive payload fingerprint.
func pfp(p pay) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range p {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	return h
}

// singletons wraps ids into one payload each.
func singletons(ids []uint64) []pay {
	out := make([]pay, len(ids))
	for i, id := range ids {
		out[i] = pay{id}
	}
	return out
}

// items wraps ids into identity-carrying leaves.
func items(ids []uint64) []core.Item[pay] {
	out := make([]core.Item[pay], len(ids))
	for i, id := range ids {
		out[i] = core.Item[pay]{ID: id, Payload: pay{id}}
	}
	return out
}

// pfold concatenates payloads client-side, as the runtime folds newly
// mapped splits into C′ before a coalescing append.
func pfold(ps []pay) pay {
	var out pay
	for _, p := range ps {
		out = append(out, p...)
	}
	return out
}

// rndSeed is the coin-flip seed every randomized window uses: it must be
// identical across replicas and restores (in the runtime it is part of
// the checkpointed configuration), including fresh windows restored from
// a checkpoint without ever seeing Build.
const rndSeed = 0xc0ffee

// newWindow builds the kind's window over n initial units at the given
// intra-tree parallelism, with optional fault injection. The harness
// drives every kind through the same core.Window surface the runtime
// uses; all window logic lives in core.
func newWindow(kind Kind, n, par int, bug core.Buggify) core.Window[pay] {
	switch kind {
	case Folding:
		return core.NewFoldingWindow(pmerge, core.WithParallelism[pay](par))
	case Randomized:
		return core.NewRandomizedWindow(pmerge, rndSeed, par)
	case Rotating, RotatingSplit:
		return core.NewRotatingWindow(pmerge, n, par, kind == RotatingSplit, bug)
	case Coalescing, CoalescingSplit:
		return core.NewCoalescingWindow(pmerge, pfold, kind == CoalescingSplit)
	case Strawman:
		return core.NewStrawmanWindow(pmerge, par)
	case Daba:
		return core.NewDabaWindow(pmerge, n)
	case FingerTree:
		return core.NewFingerWindow(pmerge, bug)
	default:
		panic(fmt.Sprintf("sim: unknown kind %v", kind))
	}
}

// background runs a split window's deferred step right after the
// foreground one, as the runtime does before the next slide.
func background(w core.Window[pay]) error {
	if sw, ok := w.(core.SplitWindow[pay]); ok {
		_, err := sw.Background()
		return err
	}
	return nil
}

// rootOf returns the window's reduce input as one payload: the roots
// concatenated in window order (a split-mode union included).
func rootOf(w core.Window[pay]) (pay, bool) {
	roots := w.Roots()
	switch len(roots) {
	case 0:
		return nil, false
	case 1:
		return roots[0], true
	}
	return pfold(roots), true
}
