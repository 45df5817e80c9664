package eventstore

import (
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
