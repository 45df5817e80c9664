package freq

import (
	"fmt"
	"testing"
)

// Table-driven edge cases around the lossy-counting parameters: epsilon
// validation at the open-interval boundaries, degenerate streams, and
// eviction behavior exactly at bucket boundaries.

func TestNewLossyCounterEpsilonBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		epsilon   float64
		wantErr   bool
		wantWidth int
	}{
		{name: "zero", epsilon: 0, wantErr: true},
		{name: "negative", epsilon: -0.1, wantErr: true},
		{name: "one", epsilon: 1, wantErr: true},
		{name: "above one", epsilon: 1.5, wantErr: true},
		{name: "just inside lower", epsilon: 1.0 / (1 << 20), wantErr: false, wantWidth: 1<<20 + 1},
		{name: "just inside upper", epsilon: 0.999999, wantErr: false, wantWidth: 2},
		{name: "half", epsilon: 0.5, wantErr: false, wantWidth: 3},
		{name: "typical", epsilon: 0.01, wantErr: false, wantWidth: 101},
		{name: "non-unit-fraction", epsilon: 0.3, wantErr: false, wantWidth: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewLossyCounter[string](tc.epsilon)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NewLossyCounter(%v) accepted an out-of-range epsilon", tc.epsilon)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewLossyCounter(%v): %v", tc.epsilon, err)
			}
			if c.width != tc.wantWidth {
				t.Fatalf("width = %d, want %d", c.width, tc.wantWidth)
			}
		})
	}
}

func TestLossyCounterSingleItemStream(t *testing.T) {
	// A one-item stream crosses every bucket boundary but the item's count
	// always exceeds the bucket id, so it must never be evicted and must be
	// counted exactly (delta = 0 for an item present from the start).
	c, err := NewLossyCounter[string](0.1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		c.Add("only")
	}
	if got := c.Count("only"); got != n {
		t.Fatalf("Count = %d, want exact %d", got, n)
	}
	if got := c.N(); got != n {
		t.Fatalf("N = %d, want %d", got, n)
	}
	if got := c.Size(); got != 1 {
		t.Fatalf("Size = %d, want 1", got)
	}
	hits := c.AtLeast(n)
	if len(hits) != 1 || hits["only"] != n {
		t.Fatalf("AtLeast(%d) = %v, want {only: %d}", n, hits, n)
	}
	if hits := c.AtLeast(n + 1); len(hits) != 0 {
		t.Fatalf("AtLeast(%d) = %v, want empty", n+1, hits)
	}
}

func TestLossyCounterEvictionAtBucketBoundary(t *testing.T) {
	// epsilon 0.5 → width 3: pruning runs after items 3, 6, 9, … A
	// singleton inserted in bucket b has count+delta = 1+(b−1) = b ≤ b, so
	// it is evicted at the first boundary after its insertion — and
	// surviving items carry their full count across the boundary.
	c, err := NewLossyCounter[string](0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket 1: a a b — prune at n=3 drops nothing with count 2 (a: 2+0 >
	// 1) but evicts the bucket-1 singleton b (1+0 ≤ 1).
	c.Add("a")
	c.Add("a")
	c.Add("b")
	if got := c.Count("b"); got != 0 {
		t.Fatalf("bucket-1 singleton survived the boundary: Count(b) = %d", got)
	}
	if got := c.Count("a"); got != 2 {
		t.Fatalf("surviving item lost occurrences: Count(a) = %d, want 2", got)
	}
	// Bucket 2: b returns with delta = 1, so 1+1 > 2 is false at the n=6
	// boundary only if it stays a singleton — count+delta = 2 ≤ bucket 2
	// evicts it again despite the delta headroom.
	c.Add("b")
	c.Add("a")
	c.Add("a")
	if got := c.Count("b"); got != 0 {
		t.Fatalf("re-inserted singleton survived the second boundary: Count(b) = %d", got)
	}
	// Bucket 3: two occurrences of b (count 2, delta 2) → 4 > 3 survives
	// the n=9 boundary.
	c.Add("b")
	c.Add("b")
	c.Add("a")
	if got := c.Count("b"); got != 2 {
		t.Fatalf("item above the boundary threshold was evicted: Count(b) = %d, want 2", got)
	}
	// The reported count may undercount by at most ε·N.
	trueB := 4 // b appeared 4 times in total
	if got, slack := c.Count("b"), int(0.5*float64(c.N())); trueB-got > slack {
		t.Fatalf("undercount %d exceeds ε·N = %d", trueB-got, slack)
	}
}

func TestLossyCounterUndercountBound(t *testing.T) {
	// Adversarial mix of one heavy item and a churn of singletons: every
	// reported count must be ≤ the true count and ≥ true − ε·N, and
	// AtLeast(threshold) must include every item with true count ≥
	// threshold.
	const epsilon = 0.02
	c, err := NewLossyCounter[string](epsilon)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string]int)
	add := func(item string) {
		c.Add(item)
		truth[item]++
	}
	for i := 0; i < 5000; i++ {
		add("heavy")
		add(fmt.Sprintf("churn-%d", i))
		if i%3 == 0 {
			add("warm")
		}
	}
	slack := int(epsilon * float64(c.N()))
	for _, item := range []string{"heavy", "warm"} {
		got := c.Count(item)
		if got > truth[item] {
			t.Fatalf("Count(%s) = %d overcounts true %d", item, got, truth[item])
		}
		if truth[item]-got > slack {
			t.Fatalf("Count(%s) = %d undercounts true %d by more than ε·N = %d",
				item, got, truth[item], slack)
		}
	}
	// Completeness: items at or above the threshold must all be reported.
	threshold := 1000
	hits := c.AtLeast(threshold)
	for item, n := range truth {
		if n >= threshold {
			if _, ok := hits[item]; !ok {
				t.Fatalf("AtLeast(%d) missed %s with true count %d", threshold, item, n)
			}
		}
	}
	// Soundness: nothing below threshold − ε·N may appear.
	for item := range hits {
		if truth[item] < threshold-slack {
			t.Fatalf("AtLeast(%d) reported %s with true count %d < threshold−ε·N = %d",
				threshold, item, truth[item], threshold-slack)
		}
	}
	// The space bound is the point of the algorithm: the churn items must
	// not accumulate.
	if c.Size() > 500 {
		t.Fatalf("Size = %d; churn items are not being pruned", c.Size())
	}
}
