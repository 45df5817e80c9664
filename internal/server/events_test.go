package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"logparse/internal/eventstore"
)

// eventsConfig is testConfig plus a per-tenant event store under its own
// root, with small blocks so queries span many of them.
func eventsConfig(t *testing.T) Config {
	cfg := testConfig(t.TempDir())
	cfg.EventsRoot = t.TempDir()
	cfg.Stream.EventStoreBlockBytes = 2048
	return cfg
}

// TestServerEventStoreParity ingests two tenants, drains the fleet, and
// checks each tenant's event store reproduces its engine's matched count
// exactly — the server-level version of the engine parity test, across
// tenant isolation boundaries.
func TestServerEventStoreParity(t *testing.T) {
	s, err := New(eventsConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]string{
		"web": tenantLines(t, 0, 1500),
		"db":  tenantLines(t, 1, 1200),
	}
	for id, lines := range streams {
		ingestAll(t, s, id, lines, 300)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for id := range streams {
		st, err := s.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Stream.EventStoreEnabled || st.Stream.EventStoreError != "" {
			t.Fatalf("tenant %s store not healthy: %+v", id, st.Stream)
		}
		r, _, err := eventstore.OpenReader(s.eventsDir(id), eventstore.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n, qs, err := r.Count(eventstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if n != st.Stream.Matched {
			t.Fatalf("tenant %s: store counts %d matched events, engine counted %d", id, n, st.Stream.Matched)
		}
		if qs.Decompressed != 0 {
			t.Fatalf("tenant %s: unbounded count decompressed %d blocks, want pure index", id, qs.Decompressed)
		}
	}
}

// TestHTTPQueryEndpoint exercises GET /v1/query over loopback: count
// parity against the tenant's live stats, top-template ordering, list
// paging, unknown-tenant and disabled-store 404s, and parameter
// validation. Queries run against a live, still-serving tenant — the
// reader sees every block finalized by the tenant's checkpoints.
func TestHTTPQueryEndpoint(t *testing.T) {
	s, err := New(eventsConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lines := tenantLines(t, 0, 1200)
	ingestAll(t, s, "web", lines, 300)
	waitTenantOffset(t, s, "web", int64(len(lines)))
	// Checkpoint finalizes the store so the full history is on disk.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := s.TenantStats("web")
	if err != nil {
		t.Fatal(err)
	}

	get := func(query string) (*http.Response, queryResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/query?" + query)
		if err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		if resp.StatusCode == http.StatusOK {
			decodeInto(t, resp, &qr)
		} else {
			resp.Body.Close()
		}
		return resp, qr
	}

	resp, qr := get("tenant=web")
	if resp.StatusCode != http.StatusOK || qr.Mode != "count" || qr.Count == nil {
		t.Fatalf("count query = %d %+v", resp.StatusCode, qr)
	}
	if *qr.Count != st.Stream.Matched {
		t.Fatalf("query count %d != tenant matched %d", *qr.Count, st.Stream.Matched)
	}
	if qr.Stats.Blocks == 0 || qr.Stats.Decompressed != 0 {
		t.Fatalf("unbounded count should be index-only: %+v", qr.Stats)
	}

	_, qr = get("tenant=web&mode=top&n=3")
	if len(qr.Templates) != 3 {
		t.Fatalf("top-3 returned %d templates", len(qr.Templates))
	}
	if qr.Templates[0].Count < qr.Templates[1].Count || qr.Templates[1].Count < qr.Templates[2].Count {
		t.Fatalf("top templates not descending: %+v", qr.Templates)
	}

	_, qr = get("tenant=web&mode=list&limit=25&unmatched=true")
	if len(qr.Events) != 25 {
		t.Fatalf("list limit=25 returned %d events", len(qr.Events))
	}
	for i := 1; i < len(qr.Events); i++ {
		if qr.Events[i].Seq < qr.Events[i-1].Seq {
			t.Fatalf("list out of order at %d: %+v", i, qr.Events[i-1:i+1])
		}
	}

	// Template-restricted count agrees with the top listing.
	top := qr.Templates
	_, qr = get("tenant=web&mode=top&n=1")
	topID := qr.Templates[0]
	_, qr = get("tenant=web&template=" + url.QueryEscape(strconv.FormatInt(int64(topID.Template), 10)))
	if qr.Count == nil || *qr.Count != topID.Count {
		t.Fatalf("template-restricted count %v != top count %d (top listing %+v)", qr.Count, topID.Count, top)
	}

	// A template named twice is selected once, by count and by top.
	id := strconv.FormatInt(int64(topID.Template), 10)
	_, qr = get("tenant=web&template=" + id + "," + id)
	if qr.Count == nil || *qr.Count != topID.Count {
		t.Fatalf("template=%s,%s count %v != %d", id, id, qr.Count, topID.Count)
	}
	_, qr = get("tenant=web&mode=top&template=" + id + "," + id)
	if len(qr.Templates) != 1 || qr.Templates[0].Count != topID.Count {
		t.Fatalf("template=%s,%s top %+v, want one row of %d", id, id, qr.Templates, topID.Count)
	}

	for query, want := range map[string]int{
		"tenant=nosuch":                http.StatusNotFound,
		"tenant=..%2Fescape":           http.StatusBadRequest,
		"":                             http.StatusBadRequest,
		"tenant=web&mode=bogus":        http.StatusBadRequest,
		"tenant=web&template=x":        http.StatusBadRequest,
		"tenant=web&from=notatime":     http.StatusBadRequest,
		"tenant=web&mode=list&limit=0": http.StatusBadRequest,
		"tenant=web&mode=top&n=-1":     http.StatusBadRequest,
		"tenant=web&from=2026-01-01T00:00:00Z&to=2026-01-01T00:00:01Z": http.StatusOK,
	} {
		resp, _ := get(query)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("query %q = %d, want %d", query, resp.StatusCode, want)
		}
	}
}

// TestHTTPQueryDisabled checks the endpoint 404s cleanly when the server
// runs without an events root.
func TestHTTPQueryDisabled(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ingestAll(t, s, "web", tenantLines(t, 0, 100), 100)
	resp, err := http.Get(ts.URL + "/v1/query?tenant=web")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query on disabled store = %d, want 404", resp.StatusCode)
	}
	s.Kill()
}
