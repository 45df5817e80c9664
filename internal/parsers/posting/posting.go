// Package posting is the candidate index the online learners put in front of
// their exact similarity kernel once a bucket outgrows a plain scan: Drain's
// leaves key it by (position, token) and count agreeing positions, Spell's
// length buckets key it by interned constant ID and run an LCS. Both accept a
// member only when at least need of the line's positions agree with it, and
// a member that agrees at a position sits in that position's posting list —
// so by pigeonhole it sits in at least one of any n−need+1 of the line's n
// lists, and the need−1 longest can be skipped (DESIGN.md, "Candidate
// index"). The index is derived state: it is never serialised, and a Restore
// rebuilds it through Add.
package posting

import (
	"cmp"
	"slices"
)

// Small is the bucket size up to which a plain scan beats hashing the line:
// both learners index a bucket when its ninth member is founded.
const Small = 8

// Index maps a key to the chain of members added under it. Nothing is ever
// removed: an entry left stale when its member wildcards the constant, like a
// key collision, only nominates a candidate the exact kernel rejects. Chained
// int32 pairs in one slice instead of a slice per key keep it at 8 bytes per
// entry plus one map slot per distinct key.
type Index struct {
	lists   map[uint64]posting
	entries []entry
}

// posting is one key's chain: head is 1-based into entries, 0 ends a chain.
type posting struct{ head, count int32 }

type entry struct{ next, member int32 }

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{lists: make(map[uint64]posting)} }

// Add puts member on key's chain.
func (x *Index) Add(key uint64, member int) {
	p := x.lists[key]
	x.entries = append(x.entries, entry{next: p.head, member: int32(member)})
	x.lists[key] = posting{head: int32(len(x.entries)), count: p.count + 1}
}

// Finder is one learner's lookup scratch, shared by all its indexes: the
// probed posting lists of the current line, the candidates they nominate and
// the per-member epoch stamp that de-duplicates them. Members are numbered
// learner-wide.
type Finder struct {
	lists []posting
	cands []int
	stamp []uint32
	epoch uint32
}

// Probe notes key's posting list, if x has one, for the next Candidates call.
// Call it once per line position, repeated keys included: the pigeonhole
// bound counts positions.
func (f *Finder) Probe(x *Index, key uint64) {
	if p, ok := x.lists[key]; ok {
		f.lists = append(f.lists, p)
	}
}

// Candidates merges the lists probed in x since the last call, minus the
// need−1 longest, and returns each nominated member once, in no particular
// order. need is at least 1; members is the learner's member count, above
// every member in x. The result is valid until the next call.
func (f *Finder) Candidates(x *Index, need, members int) []int {
	for len(f.stamp) < members {
		f.stamp = append(f.stamp, 0)
	}
	if f.epoch++; f.epoch == 0 {
		clear(f.stamp)
		f.epoch = 1
	}
	slices.SortFunc(f.lists, func(a, b posting) int { return cmp.Compare(b.count, a.count) })
	cands := f.cands[:0]
	for _, p := range f.lists[min(need-1, len(f.lists)):] {
		for at := p.head; at != 0; at = x.entries[at-1].next {
			if m := x.entries[at-1].member; f.stamp[m] != f.epoch {
				f.stamp[m] = f.epoch
				cands = append(cands, int(m))
			}
		}
	}
	f.lists, f.cands = f.lists[:0], cands
	return cands
}
