package eventstore

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkEventStoreQuery measures a selective template+time query over
// a multi-block corpus — the skip-scan hot path: most blocks are
// eliminated on footer metadata without decompression.
func BenchmarkEventStoreQuery(b *testing.B) {
	dir := b.TempDir()
	blocks := buildSkipCorpus(b, dir)
	r, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		b.Fatalf("OpenReader: %v", err)
	}
	q := Query{
		TemplateIDs: []int32{7},
		From:        time.Unix(0, int64(2900)*int64(time.Millisecond)),
		To:          time.Unix(0, int64(3100)*int64(time.Millisecond)),
	}
	b.ResetTimer()
	var last QueryStats
	for i := 0; i < b.N; i++ {
		var n int64
		st, err := r.Scan(q, func(Event) error { n++; return nil })
		if err != nil {
			b.Fatalf("Scan: %v", err)
		}
		if n != 200 { // half-open: lines 2900..3099
			b.Fatalf("selected %d events, want 200", n)
		}
		last = st
	}
	b.ReportMetric(float64(last.Skipped)/float64(blocks)*100, "skip-%")
	b.ReportMetric(float64(last.Decompressed), "blocks-inflated/op")
}

// benchShapes are the two template mixes a store's blocks carry: a
// converged matcher's, 47 Zipf templates (HDFS's stores hold ≈ 100 per
// block), and a learner's, ≈ 1,900 distinct templates per 5,000-event
// block, most seen once or twice — where rebuilding a v3 block's code from
// its footer costs most.
var benchShapes = []benchShape{{"zipf47", 1.2, 2, 47}, {"learner", 1.01, 1, 20000}}

type benchShape struct {
	name string
	s, v float64
	imax uint64
}

// benchEvents returns the i-th event of a service-shaped stream: 64 events
// per instant (the engine's consumer batch), templates drawn from zipf,
// and one rare template — every 20,000th event — no draw yields.
func benchEvents(zipf *rand.Zipf) func(i int) Event {
	return func(i int) Event {
		ev := Event{
			Seq:      int64(i + 1),
			Time:     int64(time.Hour) + int64(i/64)*int64(50*time.Microsecond),
			Template: int32(zipf.Uint64()),
			Kind:     KindMatched,
		}
		if i%20000 == 9999 {
			ev.Template = benchRare
		}
		return ev
	}
}

const (
	benchRare     = 1 << 15
	benchPerBlock = 5000 // the engine's checkpoint interval
)

// openBenchStore writes blocks blocks of benchPerBlock events of shape sh
// and opens a reader over them.
func openBenchStore(b *testing.B, sh benchShape, blocks int) *Reader {
	dir := b.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	event := benchEvents(rand.NewZipf(rand.New(rand.NewSource(1)), sh.s, sh.v, sh.imax))
	for i := 0; i < blocks*benchPerBlock; i++ {
		if err := s.Append(event(i)); err != nil {
			b.Fatalf("Append: %v", err)
		}
		if i%benchPerBlock == benchPerBlock-1 {
			if err := s.Finalize(); err != nil {
				b.Fatalf("Finalize: %v", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	r, info, err := OpenReader(dir, ReaderOptions{})
	if err != nil || info.Blocks != blocks {
		b.Fatalf("OpenReader: %+v, %v", info, err)
	}
	return r
}

// BenchmarkEventStoreList measures what a block costs a list query on a
// service-shaped store, in each shape: 400 blocks of 5,000 events, where
// `mode=list&limit=100` must find the rare template. A quarter of the
// blocks hold one such event each, and each of those is read, verified and
// decoded for it.
func BenchmarkEventStoreList(b *testing.B) {
	const blocks = 400
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			r := openBenchStore(b, sh, blocks)
			q := Query{TemplateIDs: []int32{benchRare}, Limit: 100}
			b.ResetTimer()
			var st QueryStats
			var err error
			for i := 0; i < b.N; i++ {
				n := 0
				if st, err = r.Scan(q, func(Event) error { n++; return nil }); err != nil || n != 100 {
					b.Fatalf("Scan: %d events, %v", n, err)
				}
			}
			if st.Decompressed != blocks/4 {
				b.Fatalf("stats: %+v", st)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*st.Decompressed), "us/block")
			b.ReportMetric(float64(st.BytesDecompressed)/float64(st.Decompressed), "rawB/block")
		})
	}
}

// BenchmarkEventStoreTop measures `mode=top&n=10` over a whole store of
// 120 blocks, in each shape — the learner's holds ≈ 19,700 templates. Every
// block is answered from its footer index, so the cost is the tally and
// the selection of ten rows.
func BenchmarkEventStoreTop(b *testing.B) {
	const blocks = 120
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			r := openBenchStore(b, sh, blocks)
			counts, _, err := r.TemplateCounts(Query{})
			if err != nil {
				b.Fatalf("TemplateCounts: %v", err)
			}
			req := Request{Mode: "top", Top: 10}
			b.ResetTimer()
			var ans Answer
			for i := 0; i < b.N; i++ {
				if ans, err = r.Run(req, nil); err != nil || len(ans.Templates) != 10 {
					b.Fatalf("Run: %d rows, %v", len(ans.Templates), err)
				}
			}
			if ans.Stats.IndexOnly != blocks {
				b.Fatalf("stats: %+v", ans.Stats)
			}
			b.ReportMetric(float64(len(counts)), "templates")
		})
	}
}

// BenchmarkEventStoreSeal measures what sealing a 5,000-event block costs
// per event, in each shape: the code's build, the body, the footer and the
// checksum. Filling the block is not timed.
func BenchmarkEventStoreSeal(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			event := benchEvents(rand.NewZipf(rand.New(rand.NewSource(1)), sh.s, sh.v, sh.imax))
			var bb blockBuilder
			var out []byte
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bb.reset()
				for j := 0; j < benchPerBlock; j++ {
					bb.add(event(i*benchPerBlock + j))
				}
				b.StartTimer()
				out, _ = bb.seal(out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchPerBlock), "ns/event")
			b.ReportMetric(float64(len(out))/benchPerBlock, "B/event")
		})
	}
}

// BenchmarkEventStoreAppend measures the writer's ingest-side cost per
// event, Finalize included once per batch of 10k.
func BenchmarkEventStoreAppend(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := Event{
			Seq:      int64(i + 1),
			Time:     int64(i) * int64(time.Millisecond),
			Template: int32(i % 64),
			Kind:     KindMatched,
		}
		if err := s.Append(ev); err != nil {
			b.Fatalf("Append: %v", err)
		}
		if i%10000 == 9999 {
			if err := s.Finalize(); err != nil {
				b.Fatalf("Finalize: %v", err)
			}
		}
	}
}
