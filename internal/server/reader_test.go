package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"logparse/internal/eventstore"
	"logparse/internal/stream"
	"logparse/internal/telemetry"
)

// queryOverHTTP runs one /v1/query and decodes its 200.
func queryOverHTTP(t *testing.T, ts *httptest.Server, query string) queryResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/query?" + query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/query?%s = %d", query, resp.StatusCode)
	}
	var qr queryResponse
	decodeInto(t, resp, &qr)
	return qr
}

// requireQueriesEqualCold holds the HTTP answers — which come through the
// tenant's kept reader — equal to a cold in-process reader on the same
// directory, for every mode. Call it only while the tenant is not writing.
func requireQueriesEqualCold(t *testing.T, s *Server, ts *httptest.Server, tenant string) {
	t.Helper()
	cold, _, err := eventstore.OpenReader(s.eventsDir(tenant), eventstore.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, unmatched := range []bool{false, true} {
		q := eventstore.Query{IncludeUnmatched: unmatched}
		suffix := ""
		if unmatched {
			suffix = "&unmatched=true"
		}
		want, _, err := cold.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := queryOverHTTP(t, ts, "tenant="+tenant+"&mode=count"+suffix); got.Count == nil || *got.Count != want {
			t.Fatalf("mode=count%s over HTTP differs from the cold reader's %d: %+v", suffix, want, got.Stats)
		}
		top, err := cold.Run(eventstore.Request{Mode: "top", Query: q, Top: 100000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := queryOverHTTP(t, ts, "tenant="+tenant+"&mode=top&n=100000"+suffix).Templates; !reflect.DeepEqual(got, top.Templates) {
			t.Fatalf("mode=top%s over HTTP = %+v, cold reader %+v", suffix, got, top.Templates)
		}
		var seqs []int64
		q.Limit = 10000
		if _, err := cold.Scan(q, func(ev eventstore.Event) error { seqs = append(seqs, ev.Seq); return nil }); err != nil {
			t.Fatal(err)
		}
		got := queryOverHTTP(t, ts, "tenant="+tenant+"&mode=list&limit=10000"+suffix).Events
		if len(got) != len(seqs) {
			t.Fatalf("mode=list%s over HTTP returned %d events, cold reader %d", suffix, len(got), len(seqs))
		}
		for i, ev := range got {
			if ev.Seq != seqs[i] {
				t.Fatalf("mode=list%s event %d has seq %d, cold reader %d", suffix, i, ev.Seq, seqs[i])
			}
		}
	}
}

// TestQueryReaderAcrossForcedRestart is the reader-lifetime rule at server
// level. A kept reader serves a tenant's queries; an injected event-store
// failure then ends that engine incarnation, and the restart's AlignTo cuts
// away blocks the kept reader had already indexed. The reader must die with
// the incarnation: after the replay, every query mode over HTTP equals a cold
// reader — as it did before the failure.
func TestQueryReaderAcrossForcedRestart(t *testing.T) {
	cfg := eventsConfig(t)
	cfg.Stream.EventStoreBlockBytes = 64 // several auto-sealed blocks per checkpoint interval
	cfg.Telemetry = telemetry.New()
	var blocks atomic.Int64
	cfg.ConfigureEngine = func(_ string, sc *stream.Config) {
		sc.EventStoreSeam.Hook = func(point string) error {
			// Once, a few blocks past a checkpoint: the block is on disk,
			// the store latches failed, the engine refuses to checkpoint.
			if point == "block" && blocks.Add(1) == 24 {
				return errors.New("reader_test: injected event-store failure")
			}
			return nil
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	lines := tenantLines(t, 0, 3000)

	ingestAll(t, s, "web", lines[:600], 100)
	waitTenantOffset(t, s, "web", 600)
	requireQueriesEqualCold(t, s, ts, "web")

	// One batch at a time, waiting for each to be processed, with queries
	// throughout. The failure lands while a batch is being admitted or
	// processed, and the next incarnation resumed from its last checkpoint
	// and numbers pushes from the start of the stream: the client replays
	// from the beginning, and what the checkpoint covers is skipped. A push
	// refused mid-batch (ErrNotServing) is never resent alone — the next
	// incarnation would number it as the stream's first lines, skip them,
	// and count every later line one batch too high; the replay covers it.
	send := func(from, to int) bool {
		t.Helper()
		for i := from; i < to; i += 100 {
			_, err := ingest(s, "web", lines[i:i+100])
			if errors.Is(err, stream.ErrNotServing) {
				return false
			}
			if err != nil {
				t.Fatalf("ingest at %d: %v", i, err)
			}
		}
		return true
	}
	restarted := false
	for pos := 600; pos < len(lines); pos += 100 {
		send(pos, pos+100)
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			st, err := s.TenantStats("web")
			if err != nil || time.Now().After(deadline) {
				t.Fatalf("waiting for offset %d: stats %+v, err %v", pos+100, st, err)
			}
			if st.Restarts > 0 && !restarted {
				// No query until the replay has regrown the store past where
				// the kept reader stopped: only the incarnation rule, not the
				// file sizes, can tell that reader it is stale. A refused
				// replay numbered nothing: the new incarnation is not
				// admitting yet.
				if !send(0, pos+100) {
					continue
				}
				restarted = true
			}
			if st.Stream.Offset >= int64(pos+100) {
				break
			}
		}
		queryOverHTTP(t, ts, "tenant=web&mode=top")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil { // the closing checkpoint finalizes the store
		t.Fatal(err)
	}

	st, err := s.TenantStats("web")
	if err != nil {
		t.Fatal(err)
	}
	if st.EventStoreFailures != 1 || st.Restarts != 1 || st.Stream.EventStoreBlocksDropped == 0 {
		t.Fatalf("the failure did not force a restart that cut blocks away: failures %d, restarts %d, blocks dropped %d",
			st.EventStoreFailures, st.Restarts, st.Stream.EventStoreBlocksDropped)
	}
	if st.Stream.Processed != int64(len(lines)) {
		t.Fatalf("processed %d of %d lines", st.Stream.Processed, len(lines))
	}
	requireQueriesEqualCold(t, s, ts, "web")
	if got := queryOverHTTP(t, ts, "tenant=web&mode=count&unmatched=true"); *got.Count < st.Stream.Processed-st.Stream.Empty {
		t.Fatalf("store holds %d events for %d processed lines", *got.Count, st.Stream.Processed)
	}

	c := cfg.Telemetry.Snapshot().Counters
	if c["eventstore.reader.opens"] < 2 || c["eventstore.reader.refreshes"] == 0 {
		t.Fatalf("want a cold open per incarnation and refreshes between: %v", c)
	}
}

// TestQueryKeepsOneReaderPerIdleTenant is the count-based oracle the
// benchmark reads off a run: query rounds on an idle live tenant leave one
// cold open and refresh without reading a byte, while a tenant that exists
// only on disk is scanned cold every time.
func TestQueryKeepsOneReaderPerIdleTenant(t *testing.T) {
	cfg := eventsConfig(t)
	cfg.Telemetry = telemetry.New()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	ingestAll(t, s, "web", tenantLines(t, 0, 2000), 250)
	waitTenantOffset(t, s, "web", 2000)
	queryOverHTTP(t, ts, "tenant=web") // mid-life: opens the kept reader
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	queryOverHTTP(t, ts, "tenant=web") // picks up the closing checkpoint's blocks
	idle := cfg.Telemetry.Snapshot().Counters
	for round := 0; round < 10; round++ {
		for _, q := range []string{"mode=count&template=0", "mode=top&n=10", "mode=list&template=1&limit=100", "mode=count&from=2020-01-01T00:00:00Z"} {
			queryOverHTTP(t, ts, "tenant=web&"+q)
		}
	}
	requireQueriesEqualCold(t, s, ts, "web")
	c := cfg.Telemetry.Snapshot().Counters
	if c["eventstore.reader.opens"] != 1 || c["eventstore.reader.refresh_bytes"] != idle["eventstore.reader.refresh_bytes"] {
		t.Fatalf("idle rounds: opens %d (want 1), refresh_bytes %d → %d (want unchanged)",
			c["eventstore.reader.opens"], idle["eventstore.reader.refresh_bytes"], c["eventstore.reader.refresh_bytes"])
	}
	if c["eventstore.reader.refreshes"] < 40 {
		t.Fatalf("refreshes %d, want one per query", c["eventstore.reader.refreshes"])
	}
	ts.Close()

	// A second server over the same roots has no live "web" until someone
	// ingests: its queries fall back to a cold scan, and still answer.
	cfg.Telemetry = telemetry.New()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	requireQueriesEqualCold(t, s2, ts2, "web")
	if c := cfg.Telemetry.Snapshot().Counters; c["eventstore.reader.opens"] != 6 || c["eventstore.reader.refreshes"] != 0 {
		t.Fatalf("disk-only tenant: %v, want a cold open per query and no refresh", c)
	}
}
