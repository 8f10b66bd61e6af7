// Package versioning gives Harmony's values causal identity. A value's
// version is a vector clock — one (coordinator, counter) entry per
// coordinator that has written it, where counters are the coordinator's
// write timestamps — so two versions can be compared causally: one descends
// from the other, they are equal, or they are concurrent siblings. Siblings
// are settled by last-writer-wins (Decide), which keeps legacy clock-less
// values behaving exactly as before and keeps anti-entropy byte-convergent,
// because every replica resolves the same pair of siblings to the same
// winner.
package versioning

import (
	"sort"

	"harmony/internal/wire"
)

// relation is the causal relationship between two clocks.
type relation int8

// Causal relationships.
const (
	// relEqual: identical histories.
	relEqual relation = iota
	// relDescends: the left clock has seen everything the right has, and more.
	relDescends
	// relDescendedBy: the right clock dominates the left.
	relDescendedBy
	// relConcurrent: each side has writes the other has not seen — siblings.
	relConcurrent
)

func (r relation) String() string {
	switch r {
	case relEqual:
		return "equal"
	case relDescends:
		return "descends"
	case relDescendedBy:
		return "descended-by"
	case relConcurrent:
		return "concurrent"
	}
	return "relation(?)"
}

// Clock is a vector clock: entries sorted by Node, counters strictly
// positive. The zero value (nil) is the empty history, which every non-empty
// clock descends from. Clocks are value types; mutating helpers return a new
// or normalized slice and never alias their input's backing array unless
// documented.
type Clock []wire.ClockEntry

// Get returns node's counter, or 0 when node has never stamped the clock.
func (c Clock) Get(node string) uint64 {
	i := sort.Search(len(c), func(i int) bool { return c[i].Node >= node })
	if i < len(c) && c[i].Node == node {
		return c[i].Counter
	}
	return 0
}

// Normalize sorts entries by node and collapses duplicates to their highest
// counter, dropping zero counters. It returns c reordered in place when
// already well-formed, so normalizing a sorted clock is allocation-free.
func Normalize(c Clock) Clock {
	if len(c) == 0 {
		return nil
	}
	sorted := true
	for i := 1; i < len(c); i++ {
		if c[i-1].Node >= c[i].Node {
			sorted = false
			break
		}
	}
	if sorted && c[0].Counter != 0 {
		zero := false
		for _, e := range c {
			if e.Counter == 0 {
				zero = true
				break
			}
		}
		if !zero {
			return c
		}
	}
	out := make(Clock, len(c))
	copy(out, c)
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	w := 0
	for _, e := range out {
		if e.Counter == 0 {
			continue
		}
		if w > 0 && out[w-1].Node == e.Node {
			if e.Counter > out[w-1].Counter {
				out[w-1].Counter = e.Counter
			}
			continue
		}
		out[w] = e
		w++
	}
	return out[:w]
}

// compare reports the causal relation of a to b. Both clocks must be
// normalized (sorted, deduplicated) — clocks built via Stamp/Merge always
// are.
func compare(a, b Clock) relation {
	var aHas, bHas bool // a (resp. b) has an entry exceeding the other
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Node < b[j].Node:
			aHas = true
			i++
		case a[i].Node > b[j].Node:
			bHas = true
			j++
		default:
			if a[i].Counter > b[j].Counter {
				aHas = true
			} else if a[i].Counter < b[j].Counter {
				bHas = true
			}
			i++
			j++
		}
	}
	if i < len(a) {
		aHas = true
	}
	if j < len(b) {
		bHas = true
	}
	switch {
	case aHas && bHas:
		return relConcurrent
	case aHas:
		return relDescends
	case bHas:
		return relDescendedBy
	default:
		return relEqual
	}
}

// dominates reports whether a has observed everything in b (relEqual counts).
func dominates(a, b Clock) bool {
	r := compare(a, b)
	return r == relEqual || r == relDescends
}

// Merge returns the entrywise maximum of a and b in a fresh slice.
func Merge(a, b Clock) Clock {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(Clock, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Node < b[j].Node:
			out = append(out, a[i])
			i++
		case a[i].Node > b[j].Node:
			out = append(out, b[j])
			j++
		default:
			e := a[i]
			if b[j].Counter > e.Counter {
				e.Counter = b[j].Counter
			}
			out = append(out, e)
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Stamp returns a copy of c with node's counter raised to at least counter.
// Stamping with a counter at or below the current entry still returns a
// well-formed clock (unchanged content, fresh slice).
func Stamp(c Clock, node string, counter uint64) Clock {
	return Merge(c, Clock{{Node: node, Counter: counter}})
}

// maxCounter returns the largest counter in c (0 for the empty clock).
// Because Harmony's counters are coordinator write timestamps drawn from one
// simulated/global clock, maxCounter is a recency watermark: any value whose
// write timestamp reaches it is at least as recent (in the LWW total order)
// as every write the clock has observed.
func maxCounter(c Clock) uint64 {
	var m uint64
	for _, e := range c {
		if e.Counter > m {
			m = e.Counter
		}
	}
	return m
}

// Covers reports whether the value (clock vc, write timestamp ts) satisfies
// a session token: either the value's clock causally descends from the
// token, or — when the vector path cannot prove it (legacy clock-less
// values, watermark entries folded in from other keys in the same session
// bucket) — the value's timestamp reaches the token's recency watermark.
// The timestamp fallback is sound under Harmony's single global write clock:
// counters ARE timestamps, so ts >= maxCounter(token) means the value is no
// older in the LWW order than anything the session has seen.
func Covers(vc Clock, ts int64, token Clock) bool {
	if len(token) == 0 {
		return true
	}
	if len(vc) > 0 && dominates(vc, token) {
		return true
	}
	return ts > 0 && uint64(ts) >= maxCounter(token)
}
