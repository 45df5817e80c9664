package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"logparse/internal/faultinject"
	"logparse/internal/stream"
)

// splitBatchLines is the per-request splitter handleIngest used before the
// pooled buffer — kept as the reference appendBatchLines must equal segment
// for segment.
func splitBatchLines(body []byte) [][]byte {
	lines := make([][]byte, 0, bytes.Count(body, []byte{'\n'})+1)
	for {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return append(lines, body)
		}
		lines = append(lines, body[:i])
		body = body[i+1:]
	}
}

func TestAppendBatchLinesEqualsReference(t *testing.T) {
	var reused [][]byte
	for _, body := range []string{
		"", "\n", "\n\n", "a", "a\n", "a\nb", "a\nb\n", "\na\n\nb\n\n", "a\r\nb\r\n", "\r\n", "a b c\n  \n\tx",
		strings.Repeat("line with words\n", 300),
	} {
		want := splitBatchLines([]byte(body))
		if got := appendBatchLines(nil, []byte(body)); !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: split into %q, reference %q", body, got, want)
		}
		// The pooled slice arrives truncated, with whatever the last body left.
		reused = appendBatchLines(reused[:0], []byte(body))
		if !reflect.DeepEqual(reused, want) {
			t.Fatalf("body %q into a reused slice: %q, reference %q", body, reused, want)
		}
	}
}

// TestPooledBodyDoesNotAlias overwrites the pool's buffers with garbage
// after every POST returns, while the slowed consumers still hold most of
// each body's lines in their rings. If anything downstream of PushBatch kept
// a view into the body instead of its own copy, the tenants' digests would
// diverge from the reference run, which never goes through the pool.
func TestPooledBodyDoesNotAlias(t *testing.T) {
	// One P: the buffer a handler just put back is the one the next Get —
	// the test's — returns.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	streams := map[string][]string{"web": tenantLines(t, 0, 1200), "db": tenantLines(t, 1, 1200)}
	want := digestsAfterRun(t, testConfig(t.TempDir()), streams)

	cfg := walTestConfig(t.TempDir())
	cfg.Stream.RingCapacity = 2048
	cfg.ConfigureEngine = func(_ string, sc *stream.Config) {
		sc.AfterLine = (&faultinject.SlowShard{PerLine: 20 * time.Microsecond}).AfterLine
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scribbled := 0
	for i := 0; i < 1200; i += 100 {
		for id, lines := range streams {
			resp := postLines(t, ts, id, lines[i:i+100])
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s at %d = %d", id, i, resp.StatusCode)
			}
			var held []*ingestBuf
			for j := 0; j < 4; j++ {
				b := ingestBufs.Get().(*ingestBuf)
				if buf := b.body.Bytes(); cap(buf) > 0 {
					buf = buf[:cap(buf)]
					for k := range buf {
						buf[k] = "garbage\n"[k%8]
					}
					scribbled++
				}
				held = append(held, b)
			}
			for _, b := range held {
				ingestBufs.Put(b)
			}
		}
	}
	if scribbled == 0 {
		t.Fatal("never got a used buffer back from the pool: the test overwrote nothing")
	}
	for id := range streams {
		waitTenantOffset(t, s, id, 1200)
		st, err := s.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Digest != want[id] {
			t.Fatalf("tenant %s: digest diverged after its body buffers were overwritten", id)
		}
	}
	s.Kill()
}

// TestIngestAllocationIndependentOfBodySize pins the point of the pool: in
// the steady state a 500-line POST through Handler allocates what a 50-line
// one does — the request and response plumbing — and nothing that scales
// with the body.
func TestIngestAllocationIndependentOfBodySize(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.RequestTimeout = -1 // no TimeoutHandler goroutine and buffer in the count
	cfg.Stream.RingCapacity = 1024
	cfg.Stream.CheckpointEvery = -1
	// Tenant t starts out knowing the one template every line matches.
	store, err := stream.NewStore(filepath.Join(cfg.CheckpointRoot, "tenants", "t"))
	if err == nil {
		err = store.Save(&stream.State{Templates: []stream.SavedTemplate{{ID: "T1", Tokens: []string{"connection", "from", "*", "port", "*"}}}})
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	h := s.Handler()
	var sent int64
	post := func(n int) uint64 {
		var body bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&body, "connection from 10.0.%d.%d port %d\n", i%7, i%50, 1000+i%100)
		}
		req := httptest.NewRequest("POST", "/v1/ingest?tenant=t", bytes.NewReader(body.Bytes()))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST of %d lines = %d: %s", n, rec.Code, rec.Body)
		}
		sent += int64(n)
		waitTenantOffset(t, s, "t", sent) // the consumer is idle again before the next sample
		return after.TotalAlloc - before.TotalAlloc
	}
	// The floor over many POSTs is the steady state: a collected pool or,
	// under -race, sync.Pool's deliberately dropped Puts only ever add.
	floor := func(n int) uint64 {
		post(n) // the pool's buffer grows to this size once
		least := post(n)
		for i := 0; i < 40; i++ {
			least = min(least, post(n))
		}
		return least
	}
	large, small := floor(500), floor(50)
	if diff := int64(large) - int64(small); diff > 256 || diff < -256 {
		t.Fatalf("a 500-line POST allocates %d B, a 50-line one %d B: the difference scales with the body", large, small)
	}
	if st, err := s.TenantStats("t"); err != nil || st.Stream.Matched != sent {
		t.Fatalf("lines left the matched path (matched %d of %d, err %v): the count above includes the learner's garbage", st.Stream.Matched, sent, err)
	}
}

// TestIngestBodyStatusMatrix walks the body-reading outcomes; every refusal
// must leave nothing admitted.
func TestIngestBodyStatusMatrix(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxBodyBytes = 512
	// No TimeoutHandler: it answers a bare 503 of its own when the client
	// half-closes, racing the handler's 400 for the short body below.
	cfg.RequestTimeout = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/ingest?tenant=m"

	body := func(n int) []byte { // n bytes of 8-byte lines
		return bytes.Repeat([]byte("line x1\n"), n/8+1)[:n]
	}
	// chunked hides the length from the client, so it sends no Content-Length.
	chunked := func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }
	do := func(r io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "text/plain", r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	admitted := func() int64 { return s.Stats().Accepted }

	const tooLarge = "body exceeds 512 bytes; split the batch"
	for name, r := range map[string]io.Reader{"declared": bytes.NewReader(body(513)), "chunked": chunked(body(513))} {
		if code, msg := do(r); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, tooLarge) {
			t.Fatalf("%s body one byte over the limit = %d %s, want 413 %q", name, code, msg, tooLarge)
		}
	}
	if n := admitted(); n != 0 || s.Stats().Tenants != 0 {
		t.Fatalf("oversized bodies admitted %d lines and created %d tenants", n, s.Stats().Tenants)
	}

	// A Content-Length the client does not honour: 400, nothing admitted.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/ingest?tenant=m HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n%s", body(48))
	conn.(*net.TCPConn).CloseWrite()
	raw, _ := io.ReadAll(conn)
	if !strings.HasPrefix(string(raw), "HTTP/1.1 400") || !strings.Contains(string(raw), "reading body") {
		t.Fatalf("short body answered %q, want 400 reading body", raw)
	}
	if n := admitted(); n != 0 {
		t.Fatalf("a body cut short admitted %d lines", n)
	}

	for _, tc := range []struct {
		name  string
		body  io.Reader
		lines int64
	}{
		{"chunked body of exactly MaxBodyBytes", chunked(body(512)), 64},
		{"declared body of exactly MaxBodyBytes", bytes.NewReader(body(512)), 64},
		{"empty body", bytes.NewReader(nil), 0},
		{"empty chunked body", chunked(nil), 0},
		{"body ending in a newline", strings.NewReader("a 1\nb 2\n"), 2},
		{"blank segments and carriage returns", strings.NewReader("\n\na 1\r\n\r\nb 2"), 3},
	} {
		before := admitted()
		if code, msg := do(tc.body); code != http.StatusOK {
			t.Fatalf("%s = %d %s, want 200", tc.name, code, msg)
		}
		if got := admitted() - before; got != tc.lines {
			t.Fatalf("%s admitted %d lines, want %d", tc.name, got, tc.lines)
		}
	}
}
