package freq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLossyCounterValidation(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, 2} {
		if _, err := NewLossyCounter[string](eps); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
	if _, err := NewLossyCounter[string](0.01); err != nil {
		t.Errorf("valid epsilon rejected: %v", err)
	}
}

func TestExactForSmallStreams(t *testing.T) {
	c, err := NewLossyCounter[string](0.001)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Add("a")
		if i%2 == 0 {
			c.Add("b")
		}
	}
	if got := c.Count("a"); got != 100 {
		t.Errorf("Count(a) = %d, want 100", got)
	}
	if got := c.Count("b"); got != 50 {
		t.Errorf("Count(b) = %d, want 50", got)
	}
	if got := c.Count("never"); got != 0 {
		t.Errorf("Count(never) = %d", got)
	}
}

func TestFrequentItemsAlwaysFound(t *testing.T) {
	// Guarantee: every item with true frequency ≥ threshold appears in
	// AtLeast(threshold), regardless of how much rare noise interleaves.
	c, err := NewLossyCounter[string](0.005)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	trueCounts := map[string]int{}
	for i := 0; i < 200000; i++ {
		var item string
		switch {
		case i%17 == 0:
			item = "frequent-A"
		case i%29 == 0:
			item = "frequent-B"
		default:
			item = fmt.Sprintf("noise-%d", rng.Intn(1000000))
		}
		trueCounts[item]++
		c.Add(item)
	}
	threshold := 2000
	found := c.AtLeast(threshold)
	for item, n := range trueCounts {
		if n >= threshold {
			if _, ok := found[item]; !ok {
				t.Errorf("frequent item %q (count %d) missed", item, n)
			}
		}
	}
	// Space bound in action: the tracked set is much smaller than the
	// distinct-item count.
	if c.Size() > 3000 {
		t.Errorf("counter tracks %d items; lossy counting should bound this", c.Size())
	}
}

func TestUndercountBounded(t *testing.T) {
	// Property: reported count ∈ [true − εN, true].
	eps := 0.01
	c, err := NewLossyCounter[string](eps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	trueCount := 0
	const total = 50000
	for i := 0; i < total; i++ {
		if rng.Intn(10) == 0 {
			c.Add("tracked")
			trueCount++
		} else {
			c.Add(fmt.Sprintf("other-%d", rng.Intn(100000)))
		}
	}
	got := c.Count("tracked")
	if got > trueCount {
		t.Errorf("overcounted: %d > %d", got, trueCount)
	}
	if float64(trueCount-got) > eps*float64(total) {
		t.Errorf("undercount %d exceeds bound %v", trueCount-got, eps*float64(total))
	}
}

func TestNAndSize(t *testing.T) {
	c, err := NewLossyCounter[string](0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 42; i++ {
		c.Add("x")
	}
	if c.N() != 42 {
		t.Errorf("N = %d", c.N())
	}
	if c.Size() != 1 {
		t.Errorf("Size = %d", c.Size())
	}
}

func TestLossyCounterProperty(t *testing.T) {
	// Property: for any stream, no item is overcounted.
	f := func(raw []byte) bool {
		c, err := NewLossyCounter[string](0.05)
		if err != nil {
			return false
		}
		truth := map[string]int{}
		for _, b := range raw {
			item := fmt.Sprintf("i%d", b%16)
			truth[item]++
			c.Add(item)
		}
		for item, n := range truth {
			if c.Count(item) > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
