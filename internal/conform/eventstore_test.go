package conform

import (
	"math"
	"testing"

	"logparse/internal/eventstore"
	"logparse/internal/stream"
)

// The parsed-event store joins the conformance matrix here: recording
// per-line parse decisions must be observationally invisible to the
// counting pipeline (store-on and store-off runs produce identical
// digests and counters), and the store must be a faithful history — its
// blocks, replayed through the query engine, reproduce the engine's
// per-template event counts exactly, dataset by dataset.

// eventStreamConfig is streamConfig plus a per-run event store with small
// blocks, so each cell exercises many block seals.
func eventStreamConfig(dir, eventsDir string) stream.Config {
	cfg := streamConfig(dir)
	cfg.EventStoreDir = eventsDir
	cfg.EventStoreBlockBytes = 4096
	return cfg
}

// storeTemplateCounts replays a store directory through the query engine
// and returns per-template counts (matched + late-matched kinds — the
// exact quantity the engine's counters track). An unbounded top query over
// the same store must list exactly those counts, most frequent first.
func storeTemplateCounts(t *testing.T, dir string) map[int32]int64 {
	t.Helper()
	r, info, err := eventstore.OpenReader(dir, eventstore.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTail || info.Damaged != "" {
		t.Fatalf("store not clean after graceful run: %+v", info)
	}
	counts, _, err := r.TemplateCounts(eventstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	top, err := r.Run(eventstore.Request{Mode: "top", Top: math.MaxInt32}, nil)
	if err != nil || len(top.Templates) != len(counts) {
		t.Fatalf("top over every template: %d rows, %v; TemplateCounts has %d", len(top.Templates), err, len(counts))
	}
	for i, row := range top.Templates {
		if row.Count != counts[row.Template] {
			t.Errorf("top row %d = %+v, TemplateCounts has %d", i, row, counts[row.Template])
		}
		if prev := top.Templates[max(i-1, 0)]; i > 0 && (prev.Count < row.Count || prev.Count == row.Count && prev.Template >= row.Template) {
			t.Errorf("top rows %d, %d out of order: %+v then %+v", i-1, i, prev, row)
		}
	}
	return counts
}

func TestEventStoreOnMatchesOff(t *testing.T) {
	for _, c := range streamCases() {
		c := c
		t.Run(c.dataset, func(t *testing.T) {
			t.Parallel()
			src, msgs := sourceFor(t, c)

			off := runStream(t, streamConfig(t.TempDir()), src, 0)
			eventsDir := t.TempDir()
			on := runStream(t, eventStreamConfig(t.TempDir(), eventsDir), src, 0)

			// Recording is behavior-neutral: same stream digest, same
			// canonical batch digest, same counters.
			if got, want := on.Digest(), off.Digest(); got != want {
				t.Errorf("stream digest with store = %s, without = %s", got, want)
			}
			if got, want := batchDigest(t, on, msgs), batchDigest(t, off, msgs); got != want {
				t.Errorf("canonical batch digest diverged: %s vs %s", got, want)
			}
			so, sn := off.Stats(), on.Stats()
			if sn.Processed != so.Processed || sn.Matched != so.Matched || sn.Unparsed != so.Unparsed {
				t.Errorf("counters diverged:\nstore-on:  %+v\nstore-off: %+v", sn, so)
			}

			// The store replayed through the query engine reproduces the
			// engine's per-template counts exactly — template by template,
			// with nothing extra.
			_, counts := on.Result()
			got := storeTemplateCounts(t, eventsDir)
			for i, want := range counts {
				if got[int32(i)] != want {
					t.Errorf("template %d: store replays %d events, engine counted %d", i, got[int32(i)], want)
				}
				delete(got, int32(i))
			}
			for id, n := range got {
				t.Errorf("store holds %d events for template %d, unknown to the engine", n, id)
			}
		})
	}
}

// TestEventStoreSurvivesKills runs the kill schedule of the streaming
// conformance cell with the store on: after every crash-and-resume cycle
// the repaired, realigned store still replays to exactly the final
// engine's counts.
func TestEventStoreSurvivesKills(t *testing.T) {
	for _, c := range streamCases() {
		c := c
		t.Run(c.dataset, func(t *testing.T) {
			t.Parallel()
			src, _ := sourceFor(t, c)

			clean := runStream(t, streamConfig(t.TempDir()), src, 0)

			ckptDir, eventsDir := t.TempDir(), t.TempDir()
			for _, kill := range c.kills {
				runStream(t, eventStreamConfig(ckptDir, eventsDir), src, kill)
			}
			resumed := runStream(t, eventStreamConfig(ckptDir, eventsDir), src, 0)

			if got, want := resumed.Digest(), clean.Digest(); got != want {
				t.Errorf("stream digest after %d kills = %s, want %s", len(c.kills), got, want)
			}
			_, counts := resumed.Result()
			got := storeTemplateCounts(t, eventsDir)
			var storeTotal, engineTotal int64
			for i, want := range counts {
				engineTotal += want
				if got[int32(i)] != want {
					t.Errorf("template %d after kills: store replays %d, engine counted %d", i, got[int32(i)], want)
				}
			}
			for _, n := range got {
				storeTotal += n
			}
			if storeTotal != engineTotal {
				t.Errorf("store total %d != engine matched total %d", storeTotal, engineTotal)
			}
		})
	}
}
