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

// BenchmarkEventStoreList measures what a block costs a list query on a
// service-shaped store: 400 blocks of 5,000 events (the engine's checkpoint
// interval), 64 events per instant (its consumer batch), Zipf-distributed
// templates, and one rare template — every 20,000th event — that
// `mode=list&limit=100` must find: a quarter of the blocks hold one such
// event each, and each of those is read, verified, inflated and decoded
// for it.
func BenchmarkEventStoreList(b *testing.B) {
	const blocks, perBlock, batch, rare = 400, 5000, 64, 60
	dir := b.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 2, 47)
	for i := 0; i < blocks*perBlock; i++ {
		ev := Event{
			Seq:      int64(i + 1),
			Time:     int64(time.Hour) + int64(i/batch)*int64(50*time.Microsecond),
			Template: int32(zipf.Uint64()),
			Kind:     KindMatched,
		}
		if i%20000 == 9999 {
			ev.Template = rare
		}
		if err := s.Append(ev); err != nil {
			b.Fatalf("Append: %v", err)
		}
		if i%perBlock == perBlock-1 {
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
	q := Query{TemplateIDs: []int32{rare}, Limit: 100}
	b.ResetTimer()
	var st QueryStats
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
