package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"logparse/internal/faultinject"
	"logparse/internal/parsers/drain"
	"logparse/internal/stream"
)

// postLines POSTs a batch of lines for a tenant and returns the response.
func postLines(tb testing.TB, ts *httptest.Server, tenant string, lines []string) *http.Response {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/v1/ingest?tenant="+tenant, "text/plain",
		strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// decodeInto decodes the response body into v and closes it.
func decodeInto(tb testing.TB, resp *http.Response, v any) {
	tb.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		tb.Fatal(err)
	}
}

// TestHTTPIngestRoundTrip drives the full HTTP surface over loopback:
// ingest for two tenants, per-tenant stats, the fleet snapshot, the tenant
// listing, and the health pair.
func TestHTTPIngestRoundTrip(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lines := tenantLines(t, 0, 600)
	var ir ingestResponse
	decodeInto(t, postLines(t, ts, "web", lines[:300]), &ir)
	if ir.Tenant != "web" || ir.Accepted != 300 {
		t.Fatalf("ingest response = %+v, want 300 accepted for web", ir)
	}
	// X-Tenant header is the query parameter's equal.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest", strings.NewReader(strings.Join(lines[300:], "\n")))
	req.Header.Set("X-Tenant", "web")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &ir)
	if ir.Accepted != 300 {
		t.Fatalf("header-addressed ingest = %+v, want 300 accepted", ir)
	}
	postLines(t, ts, "db", tenantLines(t, 1, 100)).Body.Close()
	waitTenantOffset(t, s, "web", 600)

	var st TenantStats
	resp, err = http.Get(ts.URL + "/v1/tenants/web/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &st)
	if st.Stream.Offset != 600 || st.Digest == "" {
		t.Fatalf("tenant stats = offset %d digest %q, want 600 + non-empty", st.Stream.Offset, st.Digest)
	}
	var fleet Stats
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &fleet)
	if fleet.Tenants != 2 || fleet.Accepted != 700 {
		t.Fatalf("fleet stats = %+v, want 2 tenants / 700 accepted", fleet)
	}
	var listing struct {
		Tenants []tenantSummary `json:"tenants"`
	}
	resp, err = http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &listing)
	if len(listing.Tenants) != 2 || listing.Tenants[0].Tenant != "db" {
		t.Fatalf("tenant listing = %+v, want [db web]", listing.Tenants)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	s.Kill()
}

// TestHTTPErrorMapping checks every typed failure's status code and
// backpressure signal.
func TestHTTPErrorMapping(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := testConfig(t.TempDir())
	cfg.MaxBodyBytes = 512
	cfg.QuotaRate = 10
	cfg.QuotaBurst = 20
	cfg.Now = clk.Now
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(resp *http.Response) int {
		resp.Body.Close()
		return resp.StatusCode
	}

	// Missing and malformed tenant ids → 400.
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("x 1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := status(resp); got != http.StatusBadRequest {
		t.Fatalf("missing tenant = %d, want 400", got)
	}
	if got := status(postLines(t, ts, "..%2Fevil", []string{"x 1"})); got != http.StatusBadRequest {
		t.Fatalf("bad tenant id = %d, want 400", got)
	}

	// Body over MaxBodyBytes → 413.
	if got := status(postLines(t, ts, "big", []string{strings.Repeat("a", 600)})); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", got)
	}

	// A batch that can never fit the quota bucket → 413 (permanent).
	batch := make([]string, 30)
	for i := range batch {
		batch[i] = fmt.Sprintf("line %d", i)
	}
	if got := status(postLines(t, ts, "q", batch)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("unsplittable batch = %d, want 413", got)
	}

	// Quota exhaustion → 429 with a Retry-After hint.
	if got := status(postLines(t, ts, "q", batch[:20])); got != http.StatusOK {
		t.Fatalf("burst-sized batch = %d, want 200", got)
	}
	resp = postLines(t, ts, "q", batch[:10])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var eresp errorResponse
	decodeInto(t, resp, &eresp)
	if eresp.RetryAfterSeconds < 1 {
		t.Fatalf("429 body = %+v, want retry_after_seconds >= 1", eresp)
	}

	// Stats for an unknown tenant → 404.
	resp, err = http.Get(ts.URL + "/v1/tenants/ghost/stats")
	if err != nil {
		t.Fatal(err)
	}
	if got := status(resp); got != http.StatusNotFound {
		t.Fatalf("unknown tenant stats = %d, want 404", got)
	}

	// Draining → readyz 503 with Retry-After, ingest 503.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("readyz while draining = %d (Retry-After %q), want 503 + hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
	if got := status(postLines(t, ts, "q", []string{"x 1"})); got != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining = %d, want 503", got)
	}
}

// TestSlowShardDeadlineIsolation injects per-line latency into one tenant's
// consumer (faultinject.SlowShard) with a ring too small to absorb the
// batch. That tenant's request must hit the per-request deadline and get
// 503 — while every other tenant, founded during the very window the slow
// request is stuck, completes at full speed: a tenant is its own fault domain.
func TestSlowShardDeadlineIsolation(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Stream.RingBytes = 1 // one batch at a time
	cfg.RequestTimeout = 150 * time.Millisecond
	slow := &faultinject.SlowShard{PerLine: 10 * time.Millisecond}
	cfg.ConfigureEngine = func(tenant string, sc *stream.Config) {
		if tenant == "molasses" {
			sc.AfterLine = slow.AfterLine
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := tenantLines(t, 0, 300) // beyond the consumer's batch and the ring's one
	slowDone := make(chan int, 1)
	go func() {
		resp := postLines(t, ts, "molasses", batch)
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()

	// While the slow request is wedged behind its own ring, fast tenants
	// must complete comfortably inside the same deadline.
	fastStart := time.Now()
	for i := 0; i < 4; i++ {
		resp := postLines(t, ts, fmt.Sprintf("fast-%d", i), tenantLines(t, i, 120))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fast tenant %d = %d, want 200", i, resp.StatusCode)
		}
	}
	if elapsed := time.Since(fastStart); elapsed > 10*time.Second {
		t.Fatalf("fast tenants took %s; the slow tenant stalled the fleet", elapsed)
	}
	if got := <-slowDone; got != http.StatusServiceUnavailable {
		t.Fatalf("slow tenant = %d, want 503 (deadline exceeded)", got)
	}
	if slow.Injected() == 0 {
		t.Fatal("the latency injector never fired")
	}
	s.Kill()
}

// benchBatch renders n catalogue lines as one newline-delimited HTTP body.
func benchBatch(tb testing.TB, tenantIdx, n int) string {
	return strings.Join(tenantLines(tb, tenantIdx, n), "\n")
}

// BenchmarkServerLoopback measures end-to-end multi-tenant ingest over
// loopback HTTP: request decoding, quota, push admission, matching,
// retraining, checkpoint cadence, and the closing drain. lines/sec is the
// aggregate fleet throughput.
func BenchmarkServerLoopback(b *testing.B) { benchServerLoopback(b, false) }

// BenchmarkServerLoopbackWAL is BenchmarkServerLoopback's durability-on
// twin: every acknowledged batch additionally pays a per-tenant WAL append
// plus one group-commit fsync. Comparing lines/sec against the plain run
// prices the zero-loss acknowledgment contract.
func BenchmarkServerLoopbackWAL(b *testing.B) { benchServerLoopback(b, true) }

func benchServerLoopback(b *testing.B, wal bool) {
	// rounds batches per op keep the one-time per-tenant costs (engine
	// build, WAL segment creation, shutdown truncation) from dominating
	// lines/sec at the snapshot protocol's small iteration counts: the
	// metric is steady-state ingest throughput, not tenant cold start.
	const tenants, batchLines, rounds = 4, 500, 8
	bodies := make([]string, tenants)
	for i := range bodies {
		bodies[i] = benchBatch(b, i, batchLines)
	}
	b.ReportAllocs()
	b.ResetTimer()

	b.StopTimer()
	s, err := New(Config{
		CheckpointRoot: b.TempDir(),
		WAL:            wal,
		Stream: stream.Config{
			CheckpointEvery: 5000,
			RetrainBatch:    64,
			Retrainer:       &testMiner{},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()
	b.StartTimer()

	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			k := (i*rounds + r) % tenants
			resp, err := client.Post(ts.URL+"/v1/ingest?tenant="+fmt.Sprintf("bench-%d", k),
				"text/plain", strings.NewReader(bodies[k]))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("ingest = %d", resp.StatusCode)
			}
		}
	}
	// The drain is part of the cost: lines/sec means processed, not
	// merely buffered.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	ts.Close()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N*rounds*batchLines)/elapsed, "lines/sec")
	}
}

// TestTenantListingAllocsFlat: GET /v1/tenants reads each tenant's offset from
// its engine's Stats, so the listing allocates as often and as much at 3,000
// templates as at 10, up to a little slack; reading it from the tenant's full stats rendered and
// hashed every template.
func TestTenantListingAllocsFlat(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Stream.Retrainer = nil
	cfg.NewOnline = func(string) (stream.OnlineParser, error) { return drain.NewStream(drain.Options{}), nil }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	h := s.Handler()
	list := func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/tenants", nil))
	}
	listing := func() (allocs float64, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(20, list)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 21
	}
	// Lines sharing no token: Drain founds a group for each.
	distinct := func(from, to int) []string {
		var lines []string
		for i := from; i < to; i++ {
			lines = append(lines, fmt.Sprintf("k%d q%d r%d s%d", i, i, i, i))
		}
		return lines
	}
	ingestAll(t, s, "web", distinct(0, 10), 10)
	waitTenantOffset(t, s, "web", 10)
	fewAllocs, fewBytes := listing()
	ingestAll(t, s, "web", distinct(10, 3010), 500)
	waitTenantOffset(t, s, "web", 3010)
	if st, _ := s.TenantStats("web"); st.Stream.Templates < 3000 {
		t.Fatalf("tenant holds %d templates, want one per line", st.Stream.Templates)
	}
	// The slack absorbs the race detector's sync.Pool, which drops items at
	// random; a digest would add tens of bytes per template.
	if manyAllocs, manyBytes := listing(); manyAllocs > fewAllocs+2 || manyBytes > fewBytes+8<<10 {
		t.Fatalf("GET /v1/tenants allocates %v times and %d B at 3,000 templates, %v and %d B at 10",
			manyAllocs, manyBytes, fewAllocs, fewBytes)
	}
}
