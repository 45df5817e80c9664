package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},      // 0
		{Name: "a", Start: 10, End: 30, Parent: 0},          // 1: 20 covered
		{Name: "b", Start: 20, End: 50, Parent: 0},          // 2: overlaps a, adds 30..50
		{Name: "c", Start: 25, End: 28, Parent: 0},          // 3: wholly inside a+b, adds nothing
		{Name: "d", Start: 90, End: 120, Parent: 0},         // 4: sticks out, only 90..100 counts
		{Name: "grandchild", Start: 12, End: 18, Parent: 1}, // 5: covers a, not root
		{Name: "leaf", Start: 200, End: 260, Parent: -1},    // 6
		{Name: "before", Start: -5, End: 5, Parent: 6},      // 7: outside its parent entirely
	}
	want := []int64{
		100 - (20 + 20 + 10), // root: [10,50) and [90,100)
		20 - 6,
		30,
		3,
		30,
		6,
		60,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	total, self := layerTotals(spans)
	if total["root"] != 100 || self["root"] != 50 || total["a"] != 20 || self["a"] != 14 {
		t.Errorf("layerTotals: root %d/%d, a %d/%d", total["root"], self["root"], total["a"], self["a"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
	live := newTracer()
	p := live.begin("parent", -1, -1)
	c := live.begin("child", p, 3)
	live.end(c)
	live.end(p)
	if len(live.spans) != 2 || live.spans[1].Parent != 0 || live.spans[1].Request != 3 || live.spans[0].End < live.spans[1].End {
		t.Errorf("spans = %+v", live.spans)
	}
}
