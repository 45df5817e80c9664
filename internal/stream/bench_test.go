package stream

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/spell"
	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// benchCountingFile tallies checkpoint bytes written during a benchmark
// run through the Config.CheckpointSeam seam.
type benchCountingFile struct {
	*os.File
	total *atomic.Int64
}

func (cf benchCountingFile) Write(p []byte) (int, error) {
	n, err := cf.File.Write(p)
	cf.total.Add(int64(n))
	return n, err
}

// benchIngest drives one full engine run over n synthetic lines and reports
// lines/sec plus checkpoint bytes per run. Engine construction (checkpoint
// directory scan, restore, retrainer setup) happens outside the timer: the
// benchmark measures ingestion, not setup. checkpointEvery < 0 disables
// periodic checkpoints, isolating matching throughput from checkpoint
// overhead.
func benchIngest(b *testing.B, n, checkpointEvery int) {
	lines := synthLines(n, 99)
	var ckptBytes atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Config{
			Open:            memOpen(lines),
			CheckpointDir:   b.TempDir(),
			RingCapacity:    1024,
			CheckpointEvery: checkpointEvery,
			RetrainBatch:    64,
			Retrainer:       &groupMiner{},
			CheckpointSeam: seglog.Seam{Wrap: func(f *os.File) seglog.File {
				return benchCountingFile{File: f, total: &ckptBytes}
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(n*b.N)/elapsed, "lines/sec")
	}
	b.ReportMetric(float64(ckptBytes.Load())/float64(b.N), "ckpt-B/op")
}

// BenchmarkStreamIngest measures end-to-end ingestion throughput: matching,
// retraining and the final checkpoint, with and without the periodic
// checkpoint cadence. Comparing the two isolates checkpoint overhead, and
// ckpt-B/op shows the durability cost in bytes each cadence pays.
func BenchmarkStreamIngest(b *testing.B) {
	const n = 20000
	b.Run("checkpoint-every-5000", func(b *testing.B) { benchIngest(b, n, 5000) })
	b.Run("checkpoint-every-500", func(b *testing.B) { benchIngest(b, n, 500) })
	b.Run("no-periodic-checkpoint", func(b *testing.B) { benchIngest(b, n, -1) })
}

// benchPushBatch drives one push-mode serve incarnation over n synthetic
// lines in 500-line acknowledged batches, with or without the write-ahead
// log. The timed region spans admission through the closing drain, so
// lines/sec means processed — and, with the WAL on, durably acknowledged.
func benchPushBatch(b *testing.B, wal bool) {
	const n = 20000
	lines := synthLines(n, 99)
	byteLines := make([][]byte, len(lines))
	for i, l := range lines {
		byteLines[i] = []byte(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := Config{
			CheckpointDir:   b.TempDir(),
			RingCapacity:    1024,
			CheckpointEvery: 5000,
			RetrainBatch:    64,
			Retrainer:       &groupMiner{},
		}
		if wal {
			cfg.WALDir = b.TempDir()
		}
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- e.Serve(ctx) }()
		if err := e.WaitServing(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for off := 0; off < n; off += 500 {
			if _, err := e.PushBatch(ctx, byteLines[off:off+500]); err != nil {
				b.Fatal(err)
			}
		}
		e.Stop()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cancel()
	}
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(n*b.N)/elapsed, "lines/sec")
	}
}

// BenchmarkStreamPushBatch measures push-mode ingestion throughput —
// admission, matching, retraining, checkpoint cadence and the closing
// drain — without durability.
func BenchmarkStreamPushBatch(b *testing.B) { benchPushBatch(b, false) }

// BenchmarkStreamPushBatchWAL is BenchmarkStreamPushBatch's durability-on
// twin: each acknowledged batch additionally pays its WAL appends plus one
// group-commit fsync. The lines/sec gap against the plain run is the price
// of the zero-loss acknowledgment contract.
func BenchmarkStreamPushBatchWAL(b *testing.B) { benchPushBatch(b, true) }

// BenchmarkStreamIngestEventStore is BenchmarkStreamIngest's recording-on
// twin at the default cadence: every processed line additionally appends
// one delta-encoded event to the block store, and each periodic checkpoint
// pays the store's group finalize (seal + one fsync). The lines/sec gap
// against the plain run bounds the cost of keeping a queryable event
// history; evt-B/op is the compressed bytes the history costs per run.
func BenchmarkStreamIngestEventStore(b *testing.B) {
	const n = 20000
	lines := synthLines(n, 99)
	b.ReportAllocs()
	b.ResetTimer()
	var evtBytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		e, err := New(Config{
			Open:            memOpen(lines),
			CheckpointDir:   b.TempDir(),
			RingCapacity:    1024,
			CheckpointEvery: 5000,
			RetrainBatch:    64,
			Retrainer:       &groupMiner{},
			EventStoreDir:   dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ents, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, ent := range ents {
			if fi, err := ent.Info(); err == nil {
				evtBytes += fi.Size()
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(n*b.N)/elapsed, "lines/sec")
	}
	b.ReportMetric(float64(evtBytes)/float64(b.N), "evt-B/op")
}

// benchOnlineIngest drives one full engine run in online-parser mode over n
// synthetic lines: the learner absorbs every line on the hot path, periodic
// checkpoints serialise it, and lines/sec is directly comparable with
// BenchmarkStreamIngest's retrain-mode figure at the same cadence.
func benchOnlineIngest(b *testing.B, n int, mk func() OnlineParser) {
	lines := synthLines(n, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Config{
			Open:            memOpen(lines),
			CheckpointDir:   b.TempDir(),
			RingCapacity:    1024,
			CheckpointEvery: 5000,
			Online:          mk(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(n*b.N)/elapsed, "lines/sec")
	}
}

// BenchmarkDrainIngest measures online-mode ingestion with the Drain
// learner on the hot path.
func BenchmarkDrainIngest(b *testing.B) {
	benchOnlineIngest(b, 20000, func() OnlineParser { return drain.NewStream(drain.Options{}) })
}

// BenchmarkSpellIngest measures online-mode ingestion with the Spell
// learner on the hot path.
func BenchmarkSpellIngest(b *testing.B) {
	benchOnlineIngest(b, 20000, func() OnlineParser { return spell.NewStream(spell.Options{}) })
}

// learnFreshSizes are the stream lengths of the LearnFresh benchmarks: the
// paper's RQ2 reads efficiency off a curve over input size, and a learner
// whose miss path scans its state shows as ns/line rising along it.
var learnFreshSizes = []int{100000, 300000, 900000}

// benchLearnFresh drives a bare learner over the first n fresh generated
// Thunderbird lines — the stream bench/'s learner workloads send — for each
// size, reporting ns/line, heapB/template (what the last learner keeps live:
// heap in use after a forced collection, over the heap before the first
// learner, per template — the curve's memory axis and the number a byte cap
// on a learner has to budget) and whatever report adds about that learner.
func benchLearnFresh[L interface {
	OnlineParser
	NumTemplates() int
}](b *testing.B, mk func() L, report func(b *testing.B, s L, misses, n int)) {
	cat, err := gen.ByName("Thunderbird")
	if err != nil {
		b.Fatal(err)
	}
	msgs := cat.Generate(1, learnFreshSizes[len(learnFreshSizes)-1])
	lines := make([][]byte, len(msgs))
	for i := range msgs {
		lines[i] = []byte(msgs[i].Content)
	}
	for _, n := range learnFreshSizes {
		b.Run(fmt.Sprintf("lines=%d", n), func(b *testing.B) {
			var (
				buf    [][]byte
				s      L
				misses int
			)
			base := liveHeap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, misses = mk(), 0
				for _, l := range lines[:n] {
					if buf = core.TokenizeBytes(l, buf); len(buf) == 0 {
						continue
					}
					if _, changed := s.LearnBytes(buf); changed {
						misses++
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/line")
			b.ReportMetric(float64(s.NumTemplates()), "templates")
			b.ReportMetric(float64(int64(liveHeap()-base))/float64(s.NumTemplates()), "heapB/template")
			report(b, s, misses, n)
		})
	}
}

// liveHeap is the heap in use once a forced collection has run.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkSpellLearnFresh: BenchmarkSpellIngest above replays synthLines,
// whose few shapes the accelerator trie absorbs after a handful of lines, so
// it measures the engine around a learner that idles; here templates keep
// arriving and the slow path is what is timed. misses/line is the share of
// lines that missed the trie (exactly the lines that changed the template
// set).
func BenchmarkSpellLearnFresh(b *testing.B) {
	benchLearnFresh(b, func() *spell.StreamParser { return spell.NewStream(spell.Options{}) },
		func(b *testing.B, s *spell.StreamParser, misses, n int) {
			b.ReportMetric(float64(misses)/float64(n), "misses/line")
			b.ReportMetric(float64(s.NumTemplates()), "templates")
		})
}

// BenchmarkDrainLearnFresh: BenchmarkDrainIngest replays a converged corpus
// and never builds a leaf worth indexing; on this stream one leaf (the
// 14-token firewall event, 3 shared constants of 14) takes a new group from
// ≈2.5 % of the lines, and largest-leaf is the scan a line reaching it would
// pay without the index.
func BenchmarkDrainLearnFresh(b *testing.B) {
	benchLearnFresh(b, func() *drain.StreamParser { return drain.NewStream(drain.Options{}) },
		func(b *testing.B, s *drain.StreamParser, _, _ int) {
			b.ReportMetric(float64(s.NumTemplates()), "templates")
			b.ReportMetric(float64(s.LargestLeaf()), "largest-leaf")
		})
}

// BenchmarkStreamIngestTelemetry is BenchmarkStreamIngest's telemetry-on
// twin at the default cadence; comparing lines/sec against the plain run
// bounds the instrumentation overhead on the per-line hot path.
func BenchmarkStreamIngestTelemetry(b *testing.B) {
	const n = 20000
	lines := synthLines(n, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Config{
			Open:            memOpen(lines),
			CheckpointDir:   b.TempDir(),
			RingCapacity:    1024,
			CheckpointEvery: 5000,
			RetrainBatch:    64,
			Retrainer:       &groupMiner{},
			Telemetry:       telemetry.New(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(n*b.N)/elapsed, "lines/sec")
	}
}

// BenchmarkCheckpointSave is the RQ2 shape — cost over size — for
// persistence: an online Drain engine fed fresh Thunderbird lines until it
// holds 1 k, 4 k and 16 k templates, then one save per 5,000-line interval,
// as a delta alone and as a delta plus a base. ns/save and B/save stay flat
// for the delta (it carries what the interval changed) and grow linearly for
// the base (it carries everything). Learning happens off the clock.
func BenchmarkCheckpointSave(b *testing.B) {
	const interval = 5000
	cat, err := gen.ByName("Thunderbird")
	if err != nil {
		b.Fatal(err)
	}
	for _, target := range []int{1000, 4000, 16000} {
		for _, kind := range []string{"delta", "base"} {
			b.Run(fmt.Sprintf("templates=%d/%s", target, kind), func(b *testing.B) {
				var written atomic.Int64
				e, err := New(Config{
					CheckpointDir: b.TempDir(), CheckpointEvery: -1, Online: drain.NewStream(drain.Options{}),
					CheckpointSeam: seglog.Seam{Wrap: func(f *os.File) seglog.File {
						return benchCountingFile{File: f, total: &written}
					}},
				})
				if err != nil {
					b.Fatal(err)
				}
				// Fresh lines from successive seeds, 50 k at a time.
				var chunk []core.LogMessage
				seed := int64(0)
				learn := func(n int) {
					for ; n > 0; n-- {
						if len(chunk) == 0 {
							seed++
							chunk = cat.Generate(seed, 50000)
						}
						e.process(context.Background(), item{lineNo: e.offset + 1, data: []byte(chunk[0].Content)})
						chunk = chunk[1:]
					}
				}
				for len(e.counts) < target {
					learn(interval)
				}
				if err := e.Checkpoint(); err != nil { // the first save is always a base
					b.Fatal(err)
				}
				written.Store(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					learn(interval)
					e.store.basePayload = math.MaxInt64
					if kind == "base" {
						rebaseNext(e)
					}
					b.StartTimer()
					if err := e.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(0, "ns/op") // one op is one save
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/save")
				b.ReportMetric(float64(written.Load())/float64(b.N), "B/save")
				b.ReportMetric(float64(len(e.counts)), "templates")
			})
		}
	}
}
