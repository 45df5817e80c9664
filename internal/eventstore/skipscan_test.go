package eventstore

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"logparse/internal/telemetry"
)

// buildSkipCorpus writes a multi-block corpus where template activity is
// time-localized: the stream walks through templates 0..49 in long runs,
// so any single template occupies only a narrow band of blocks. This is
// the access pattern skip-scan exists for — "which blocks can hold
// template T in window W" has a small answer.
func buildSkipCorpus(t testing.TB, dir string) (blocks int) {
	t.Helper()
	s, _, err := Open(Options{Dir: dir, BlockBytes: 64, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		ev := Event{
			Seq:      int64(i + 1),
			Time:     int64(i) * int64(time.Millisecond),
			Template: int32(i / (n / 50)), // 50 templates, 400-line runs
			Kind:     KindMatched,
		}
		if err := s.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	blocks = s.Stats().Blocks
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return blocks
}

func TestSkipScanSelectiveQuery(t *testing.T) {
	dir := t.TempDir()
	blocks := buildSkipCorpus(t, dir)
	if blocks < 50 {
		t.Fatalf("corpus too small for a skip-scan test: %d blocks", blocks)
	}

	tm := telemetry.New()
	r, info, err := OpenReader(dir, ReaderOptions{Telemetry: tm})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	if info.Blocks != blocks {
		t.Fatalf("reader sees %d blocks, writer wrote %d", info.Blocks, blocks)
	}

	// Template 7's run is lines 2800..3199, times 2.8s..3.2s. Query it in
	// a window covering the run's middle half.
	q := Query{
		TemplateIDs: []int32{7},
		From:        time.Unix(0, int64(2900)*int64(time.Millisecond)),
		To:          time.Unix(0, int64(3100)*int64(time.Millisecond)),
	}
	var got int64
	st, err := r.Scan(q, func(ev Event) error {
		if ev.Template != 7 {
			t.Fatalf("selected template %d", ev.Template)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if got != 200 { // half-open [from, to): lines 2900..3099
		t.Fatalf("selected %d events, want 200", got)
	}
	if st.Blocks != blocks {
		t.Fatalf("stats blocks %d != corpus %d", st.Blocks, blocks)
	}

	// The acceptance bar: the selective query must skip >90% of blocks and
	// decompress <10% of them.
	if st.Skipped*10 <= st.Blocks*9 {
		t.Fatalf("skipped only %d of %d blocks", st.Skipped, st.Blocks)
	}
	if st.Decompressed*10 >= st.Blocks {
		t.Fatalf("decompressed %d of %d blocks — skip-scan ineffective", st.Decompressed, st.Blocks)
	}

	// Telemetry mirrors the stats.
	snap := tm.Snapshot()
	if c := snap.Counters["eventstore.blocks.skipped"]; c != uint64(st.Skipped) {
		t.Fatalf("blocks.skipped counter %d != stats %d", c, st.Skipped)
	}
	if c := snap.Counters["eventstore.blocks.read"]; c != uint64(st.Decompressed) {
		t.Fatalf("blocks.read counter %d != stats %d", c, st.Decompressed)
	}
	if c := snap.Counters["eventstore.bytes.decompressed"]; c != uint64(st.BytesDecompressed) {
		t.Fatalf("bytes.decompressed counter %d != stats %d", c, st.BytesDecompressed)
	}
	if c := snap.Counters["eventstore.queries"]; c != 1 {
		t.Fatalf("queries counter %d != 1", c)
	}
	if h, ok := snap.Histograms["eventstore.query.seconds"]; !ok || h.Count != 1 {
		t.Fatalf("query latency histogram missing or empty: %+v", h)
	}
}

func TestSkipScanCountUsesIndexOnly(t *testing.T) {
	dir := t.TempDir()
	buildSkipCorpus(t, dir)
	r, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}

	// An unbounded count never touches block bodies: every block is either
	// skipped (footer index) or answered from its footer index.
	n, st, err := r.Count(Query{TemplateIDs: []int32{7}})
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if n != 400 {
		t.Fatalf("Count = %d, want 400", n)
	}
	if st.Decompressed != 0 {
		t.Fatalf("unbounded count decompressed %d blocks", st.Decompressed)
	}
	if st.IndexOnly == 0 {
		t.Fatal("no blocks answered from the index")
	}
	// Exactly the blocks holding template 7 — those a scan for it decodes —
	// are answered; every other one is skipped.
	scan, err := r.Scan(Query{TemplateIDs: []int32{7}}, func(Event) error { return nil })
	if err != nil || st.IndexOnly != scan.Decompressed || st.Skipped != st.Blocks-st.IndexOnly {
		t.Fatalf("count stats %+v, but a scan decodes %d blocks (%v)", st, scan.Decompressed, err)
	}

	// TemplateCounts over everything reproduces the generator exactly.
	counts, st2, err := r.TemplateCounts(Query{})
	if err != nil {
		t.Fatalf("TemplateCounts: %v", err)
	}
	if st2.Decompressed != 0 {
		t.Fatalf("unbounded template counts decompressed %d blocks", st2.Decompressed)
	}
	if len(counts) != 50 {
		t.Fatalf("got %d templates, want 50", len(counts))
	}
	for id, c := range counts {
		if c != 400 {
			t.Fatalf("template %d count %d, want 400", id, c)
		}
	}

	// A time-bounded count that cuts through blocks decompresses only the
	// boundary blocks and still counts exactly.
	q := Query{
		TemplateIDs: []int32{7},
		From:        time.Unix(0, int64(2900)*int64(time.Millisecond)),
		To:          time.Unix(0, int64(3100)*int64(time.Millisecond)),
	}
	n, st3, err := r.Count(q)
	if err != nil {
		t.Fatalf("bounded Count: %v", err)
	}
	if n != 200 { // half-open, like the Scan above
		t.Fatalf("bounded Count = %d, want 200", n)
	}
	if st3.Decompressed+st3.IndexOnly+st3.Skipped != st3.Blocks {
		t.Fatalf("block accounting does not add up: %+v", st3)
	}
}

func TestScanLimit(t *testing.T) {
	dir := t.TempDir()
	buildSkipCorpus(t, dir)
	r, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	var got int
	st, err := r.Scan(Query{TemplateIDs: []int32{3}, Limit: 10}, func(Event) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if got != 10 || st.Selected != 10 {
		t.Fatalf("limit ignored: yielded %d, selected %d", got, st.Selected)
	}
}

// TestQueryStatsEventsScanned pins events_scanned: the events of the blocks
// a query decoded — every event of each, whatever the decoder's template
// filter let through and wherever a limit stopped — and none for a block
// answered from its footer. Blocks here are a Finalize each, 1,000 events.
func TestQueryStatsEventsScanned(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 8000; i++ {
		ev := Event{Seq: int64(i + 1), Time: int64(i/64) * int64(time.Millisecond), Template: int32(i % 4), Kind: KindMatched}
		if i%2000 == 999 { // the rare template: once in blocks 0, 2, 4, 6
			ev.Template = 9
		}
		if err := s.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i%1000 == 999 {
			if err := s.Finalize(); err != nil {
				t.Fatalf("Finalize: %v", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	list := func(q Query) QueryStats {
		st, err := r.Scan(q, func(Event) error { return nil })
		if err != nil {
			t.Fatalf("Scan(%+v): %v", q, err)
		}
		return st
	}
	// A limited list stops in the third block that holds the template.
	if st := list(Query{TemplateIDs: []int32{9}, Limit: 3}); st.Decompressed != 3 || st.Skipped != 2 || st.Events != 3000 || st.Selected != 3 {
		t.Fatalf("limited list: %+v", st)
	}
	// An unlimited one reads all four, and skips the four without it.
	if st := list(Query{TemplateIDs: []int32{9}}); st.Decompressed != 4 || st.Skipped != 4 || st.Events != 4000 || st.Selected != 4 {
		t.Fatalf("unlimited list: %+v", st)
	}
	// A count whose window cuts blocks 2 and 5 decodes those two and takes
	// blocks 3 and 4 from their footers: 2,000 events scanned, not 4,000.
	at := func(i int) time.Time { return time.Unix(0, int64(i/64)*int64(time.Millisecond)) }
	n, st, err := r.Count(Query{TemplateIDs: []int32{1}, From: at(2560), To: at(5120)})
	if err != nil || n != 640 {
		t.Fatalf("boundary count = %d, %v", n, err)
	}
	if st.Decompressed != 2 || st.IndexOnly != 2 || st.Skipped != 4 || st.Events != 2000 || st.Selected != 640 {
		t.Fatalf("boundary count: %+v", st)
	}
	if st.BytesDecompressed <= 0 || st.BytesDecompressed > 2*st.Events {
		t.Fatalf("boundary count: %d raw bytes for %d events", st.BytesDecompressed, st.Events)
	}
}

// TestQueryWindowsTile pins the half-open time bounds where they matter:
// the engine stamps every event of a consumer batch with one instant, so a
// window boundary usually falls on a tie shared by a whole batch, and two
// adjacent windows must not both claim it. Over a store where 64+ events
// share each boundary instant, [a,b) + [b,c) == [a,c) for count, top and
// list — with the boundaries both inside blocks and on block edges.
func TestQueryWindowsTile(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, BlockBytes: 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n, batch = 6400, 64
	for i := 0; i < n; i++ {
		ev := Event{Seq: int64(i + 1), Time: int64(i/batch) * int64(time.Millisecond), Template: int32(i % 5), Kind: KindMatched}
		if i%7 == 0 {
			ev.Template, ev.Kind = -1, KindUnmatched
		}
		if err := s.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i%1000 == 999 { // blocks that end mid-batch and on a batch edge
			if err := s.Finalize(); err != nil {
				t.Fatalf("Finalize: %v", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	list := func(q Query) (seqs []int64) {
		if _, err := r.Scan(q, func(ev Event) error { seqs = append(seqs, ev.Seq); return nil }); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return seqs
	}
	for _, w := range [][3]int{{10, 40, 90}, {0, 1, 2}, {15, 16, 100}, {30, 31, 32}, {0, 50, 1000}} {
		for _, base := range []Query{{}, {IncludeUnmatched: true}, {TemplateIDs: []int32{1, 3}}} {
			ab, bc, ac := base, base, base
			ab.From, ab.To = at(w[0]), at(w[1])
			bc.From, bc.To = at(w[1]), at(w[2])
			ac.From, ac.To = at(w[0]), at(w[2])
			cAB, _, _ := r.Count(ab)
			cBC, _, _ := r.Count(bc)
			cAC, _, _ := r.Count(ac)
			if cAB+cBC != cAC || cAB == 0 || cBC == 0 {
				t.Fatalf("window %v %+v: count %d + %d != %d", w, base, cAB, cBC, cAC)
			}
			tAB, _, _ := r.TemplateCounts(ab)
			tBC, _, _ := r.TemplateCounts(bc)
			tAC, _, _ := r.TemplateCounts(ac)
			for id, c := range tAC {
				if tAB[id]+tBC[id] != c {
					t.Fatalf("window %v %+v: template %d: %d + %d != %d", w, base, id, tAB[id], tBC[id], c)
				}
			}
			if got, want := append(list(ab), list(bc)...), list(ac); !slices.Equal(got, want) || int64(len(want)) != cAC {
				t.Fatalf("window %v %+v: lists do not tile: %d + %d events vs %d (count %d)", w, base, len(list(ab)), len(list(bc)), len(want), cAC)
			}
		}
	}
}

// TestRepeatedTemplateIDs holds a query naming a template twice to the
// query naming it once, on every path a count takes: blocks the range
// covers (answered from the footer index), blocks it cuts through
// (decoded), and the unbounded range.
func TestRepeatedTemplateIDs(t *testing.T) {
	dir := t.TempDir()
	buildSkipCorpus(t, dir)
	r, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int64) time.Time { return time.Unix(0, n*int64(time.Millisecond)) }
	for name, q := range map[string]Query{
		"unbounded":   {},
		"covered":     {From: ms(0), To: ms(1 << 20)},
		"cut-through": {From: ms(2901), To: ms(3099)},
	} {
		once, twice := q, q
		once.TemplateIDs, twice.TemplateIDs = []int32{7, 8}, []int32{8, 7, 7, 8, 7}
		n1, st, err1 := r.Count(once)
		n2, _, err2 := r.Count(twice)
		if err1 != nil || err2 != nil || n1 == 0 || n1 != n2 {
			t.Fatalf("%s: Count = %d once, %d twice (%v, %v)", name, n1, n2, err1, err2)
		}
		if name == "cut-through" && st.Decompressed == 0 || name != "cut-through" && st.IndexOnly == 0 {
			t.Fatalf("%s: the query took the wrong path: %+v", name, st)
		}
		c1, _, _ := r.TemplateCounts(once)
		c2, _, _ := r.TemplateCounts(twice)
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("%s: TemplateCounts = %v once, %v twice", name, c1, c2)
		}
		var e1, e2 []Event
		r.Scan(once, func(ev Event) error { e1 = append(e1, ev); return nil })
		r.Scan(twice, func(ev Event) error { e2 = append(e2, ev); return nil })
		if int64(len(e1)) != n1 || !slices.Equal(e1, e2) {
			t.Fatalf("%s: Scan = %d events once, %d twice; Count %d", name, len(e1), len(e2), n1)
		}
	}
}
