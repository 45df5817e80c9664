// Package freq provides frequency counting over unbounded streams for the
// streaming parsers. Exact counting of (position, word) pairs over a
// 10-million-line log can exceed memory (every block ID is a distinct
// word); LossyCounter implements Manku–Motwani lossy counting, which finds
// every item with frequency ≥ s·N using O((1/ε)·log(εN)) space while
// undercounting any item by at most ε·N — exactly the guarantee a
// support-thresholded parser needs.
package freq

import "fmt"

// LossyCounter counts frequencies of items of type K approximately over a
// stream.
type LossyCounter[K comparable] struct {
	epsilon float64
	width   int // bucket width ⌈1/ε⌉
	n       int // items seen
	bucket  int // current bucket id
	counts  map[K]*entry
}

type entry struct {
	count int
	// delta is the maximum undercount (the bucket id at insertion − 1).
	delta int
}

// NewLossyCounter creates a counter with error bound epsilon ∈ (0, 1): any
// item's reported count is between true−ε·N and true.
func NewLossyCounter[K comparable](epsilon float64) (*LossyCounter[K], error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("freq: epsilon must be in (0,1), got %v", epsilon)
	}
	width := int(1/epsilon) + 1
	return &LossyCounter[K]{
		epsilon: epsilon,
		width:   width,
		bucket:  1,
		counts:  make(map[K]*entry),
	}, nil
}

// Add counts one occurrence of item.
func (c *LossyCounter[K]) Add(item K) {
	c.n++
	if e, ok := c.counts[item]; ok {
		e.count++
	} else {
		c.counts[item] = &entry{count: 1, delta: c.bucket - 1}
	}
	if c.n%c.width == 0 {
		c.prune()
	}
}

// prune drops items whose upper-bound count falls below the bucket id.
func (c *LossyCounter[K]) prune() {
	for item, e := range c.counts {
		if e.count+e.delta <= c.bucket {
			delete(c.counts, item)
		}
	}
	c.bucket++
}

// N returns the number of items seen.
func (c *LossyCounter[K]) N() int { return c.n }

// Size returns the number of items currently tracked (the space bound in
// action).
func (c *LossyCounter[K]) Size() int { return len(c.counts) }

// Count returns the (possibly undercounted) frequency of item; 0 when the
// item was pruned or never seen.
func (c *LossyCounter[K]) Count(item K) int {
	if e, ok := c.counts[item]; ok {
		return e.count
	}
	return 0
}

// AtLeast returns every item whose true count may reach threshold: all
// items with count + delta ≥ threshold. Guaranteed to include every item
// whose true frequency is ≥ threshold, and to exclude items whose true
// frequency is < threshold − ε·N.
func (c *LossyCounter[K]) AtLeast(threshold int) map[K]int {
	out := make(map[K]int)
	for item, e := range c.counts {
		if e.count+e.delta >= threshold {
			out[item] = e.count
		}
	}
	return out
}
