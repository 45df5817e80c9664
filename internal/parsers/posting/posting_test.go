package posting

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCandidatesHoldEveryMemberThatCanReachNeed is the contract both
// learners lean on, on random indexes: whatever lists the skip rule drops,
// a member sitting in at least need of the probed positions' lists is
// nominated, nobody is nominated twice, and every nominee is in some probed
// list.
func TestCandidatesHoldEveryMemberThatCanReachNeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f Finder
	for round := 0; round < 200; round++ {
		x, members := NewIndex(), 1+rng.Intn(40)
		has := make(map[uint64][]int) // key → members, the model
		for m := 0; m < members; m++ {
			for k := rng.Intn(8); k > 0; k-- {
				key := uint64(rng.Intn(12))
				x.Add(key, m)
				has[key] = append(has[key], m)
			}
		}
		line := make([]uint64, 1+rng.Intn(10)) // keys repeat: one probe per position
		hits := make([]int, members)
		for i := range line {
			line[i] = uint64(rng.Intn(16)) // some keys the index has never seen
			f.Probe(x, line[i])
			for m := range hits {
				if slices.Contains(has[line[i]], m) {
					hits[m]++ // positions, not chain entries: a member may be added twice under a key
				}
			}
		}
		need := 1 + rng.Intn(len(line)+1)
		got := slices.Clone(f.Candidates(x, need, members))
		slices.Sort(got)
		if len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("round %d: a member nominated twice: %v", round, got)
		}
		for m, h := range hits {
			_, nominated := slices.BinarySearch(got, m)
			if h >= need && !nominated {
				t.Fatalf("round %d: member %d is in %d ≥ need %d probed lists and was not nominated (%v)", round, m, h, need, got)
			}
			if h == 0 && nominated {
				t.Fatalf("round %d: member %d is in no probed list and was nominated", round, m)
			}
		}
	}
}

// TestEpochWrap: the lookup after 2³²−1 others must not take a never-stamped
// member (stamp 0) for one already nominated under epoch 0.
func TestEpochWrap(t *testing.T) {
	x := NewIndex()
	x.Add(7, 0)
	f := Finder{epoch: ^uint32(0)}
	f.Probe(x, 7)
	if got := f.Candidates(x, 1, 1); !slices.Equal(got, []int{0}) {
		t.Fatalf("candidates across the epoch wrap = %v, want [0]", got)
	}
}
