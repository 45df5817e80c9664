package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logparse/internal/stream"
)

// walTestConfig is testConfig with per-tenant write-ahead logs enabled and
// segments small enough to rotate under test traffic.
func walTestConfig(root string) Config {
	cfg := testConfig(root)
	cfg.WAL = true
	cfg.Stream.WALSegmentBytes = 32 * 1024
	return cfg
}

// TestWALServerKillRecoversAckedWithoutReplay is the server-level zero-loss
// property: SIGKILL the fleet mid-ingest, restart over the same root, and —
// with NO client replay — every tenant must recover at least every line
// whose ingest was acknowledged, in a state identical to a clean run over
// exactly the recovered prefix. A full client replay then converges to the
// uninterrupted digest.
func TestWALServerKillRecoversAckedWithoutReplay(t *testing.T) {
	const nTenants, perTenant = 3, 2500
	streams := make(map[string][]string, nTenants)
	for i := 0; i < nTenants; i++ {
		streams[fmt.Sprintf("tenant-%d", i)] = tenantLines(t, i, perTenant)
	}
	want := digestsAfterRun(t, testConfig(t.TempDir()), streams)

	root := t.TempDir()
	s, err := New(walTestConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	// Pushers run until the kill tears the fleet down, tracking per tenant
	// how many lines were durably acknowledged (batches that returned nil).
	acked := make(map[string]int, nTenants)
	var ackedMu sync.Mutex
	var wg sync.WaitGroup
	for id, lines := range streams {
		wg.Add(1)
		go func(id string, lines []string) {
			defer wg.Done()
			for i := 0; i < len(lines); i += 100 {
				if _, err := ingest(s, id, lines[i:i+100]); err != nil {
					return // the fleet died under us, as intended
				}
				ackedMu.Lock()
				acked[id] = i + 100
				ackedMu.Unlock()
			}
		}(id, lines)
	}
	for id := range streams {
		waitTenantOffset(t, s, id, 600)
	}
	s.Kill()
	wg.Wait()

	// Restart; materialize each tenant (stats query triggers WAL replay)
	// and let the fleet settle WITHOUT any client replay.
	s2, err := New(walTestConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	for id := range streams {
		ackedMu.Lock()
		n := acked[id]
		ackedMu.Unlock()
		waitTenantOffset(t, s2, id, int64(n))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	recovered := make(map[string]int64, nTenants)
	prefixStreams := make(map[string][]string, nTenants)
	digests := make(map[string]string, nTenants)
	for id, lines := range streams {
		st, err := s2.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Stream.WALEnabled {
			t.Fatalf("tenant %s recovered without a WAL", id)
		}
		if st.Stream.Offset < int64(acked[id]) {
			t.Fatalf("tenant %s lost acked lines: offset %d < acked %d", id, st.Stream.Offset, acked[id])
		}
		recovered[id] = st.Stream.Offset
		prefixStreams[id] = lines[:st.Stream.Offset]
		digests[id] = st.Digest
		t.Logf("tenant %s: acked=%d recovered=%d replayed=%d", id, acked[id], st.Stream.Offset, st.Stream.WALReplayed)
	}
	wantPrefix := digestsAfterRun(t, testConfig(t.TempDir()), prefixStreams)
	for id := range streams {
		if digests[id] != wantPrefix[id] {
			t.Fatalf("tenant %s recovered digest diverges from a clean run over its recovered prefix (offset %d)",
				id, recovered[id])
		}
	}

	// Full client replay converges to the uninterrupted digest, with the
	// recovered prefix skipped as duplicates.
	s3, err := New(walTestConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	for id, lines := range streams {
		res := ingestAll(t, s3, id, lines, 250)
		if int64(res.Skipped) != recovered[id] {
			t.Fatalf("tenant %s replay skipped %d, want the recovered prefix %d", id, res.Skipped, recovered[id])
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s3.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	for id := range streams {
		st, err := s3.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stream.Offset != perTenant {
			t.Fatalf("tenant %s replayed offset = %d, want %d", id, st.Stream.Offset, perTenant)
		}
		if st.Digest != want[id] {
			t.Fatalf("tenant %s replayed digest != uninterrupted digest", id)
		}
	}
}

// TestWALFailureRestartsOnlyThatTenant injects a one-shot WAL failure into
// one tenant. The supervisor must treat it like a panic — rebuild the
// engine (reopening and repairing the WAL) — while the sibling tenant
// streams on untouched; after the client replays the failed batch the
// victim converges to the uninterrupted digest.
func TestWALFailureRestartsOnlyThatTenant(t *testing.T) {
	const perTenant = 1500
	streams := map[string][]string{
		"victim":  tenantLines(t, 0, perTenant),
		"sibling": tenantLines(t, 1, perTenant),
	}
	want := digestsAfterRun(t, testConfig(t.TempDir()), streams)

	cfg := walTestConfig(t.TempDir())
	var pushes atomic.Int64
	var fired atomic.Bool
	cfg.ConfigureEngine = func(tenant string, sc *stream.Config) {
		if tenant != "victim" {
			return
		}
		sc.WALSeam.Hook = func(point string) error {
			// Fire exactly once, at the victim's second admission flush:
			// lines 1–64 are in the ring, 65–100 in the WAL but not yet
			// admitted. It must land inside the first client batch —
			// the retry loop below resends only the failed batch, which
			// is a replay from the start of the stream only there. The
			// rebuilt incarnation (same closure, same counter) stays
			// healthy.
			if point == "push" && pushes.Add(1) == 2 && fired.CompareAndSwap(false, true) {
				return errors.New("wal_test: injected wal failure")
			}
			return nil
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var sawWALErr bool
	for id, lines := range streams {
		for i := 0; i < len(lines); i += 100 {
			batch := lines[i : i+100]
			for attempt := 0; ; attempt++ {
				_, err := ingest(s, id, batch)
				if err == nil {
					break
				}
				var we *stream.DurableError
				if errors.As(err, &we) {
					sawWALErr = true
				} else if !errors.Is(err, stream.ErrNotServing) {
					t.Fatalf("ingest %s: unexpected error %v", id, err)
				}
				if attempt > 5000 {
					t.Fatalf("ingest %s never recovered: %v", id, err)
				}
				time.Sleep(2 * time.Millisecond) // supervisor is rebuilding
			}
		}
	}
	if !sawWALErr && !fired.Load() {
		t.Fatal("the injected WAL failure never fired")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	victim, err := s.TenantStats("victim")
	if err != nil {
		t.Fatal(err)
	}
	if victim.WALFailures != 1 || victim.Restarts != 1 {
		t.Fatalf("victim wal_failures=%d restarts=%d, want 1 and 1", victim.WALFailures, victim.Restarts)
	}
	if victim.Error != "" {
		t.Fatalf("victim went terminal: %s", victim.Error)
	}
	if victim.Digest != want["victim"] {
		t.Fatal("victim digest diverges from the uninterrupted run after replay")
	}
	sibling, err := s.TenantStats("sibling")
	if err != nil {
		t.Fatal(err)
	}
	if sibling.WALFailures != 0 || sibling.Restarts != 0 {
		t.Fatalf("sibling was disturbed: wal_failures=%d restarts=%d", sibling.WALFailures, sibling.Restarts)
	}
	if sibling.Digest != want["sibling"] {
		t.Fatal("sibling digest diverges")
	}
}

// TestWALFailureCapGoesTerminal pins the restart budget: a WAL that fails
// on every incarnation exhausts maxDurableRestarts and the tenant goes
// terminal with the failure recorded, instead of restart-looping forever.
func TestWALFailureCapGoesTerminal(t *testing.T) {
	cfg := walTestConfig(t.TempDir())
	cfg.ConfigureEngine = func(tenant string, sc *stream.Config) {
		sc.WALSeam.Hook = func(point string) error {
			if point == "push" {
				return errors.New("wal_test: permanently broken wal")
			}
			return nil
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := tenantLines(t, 0, 100)
	deadline := time.Now().Add(30 * time.Second)
	var st TenantStats
	for {
		_, lastErr := ingest(s, "doomed", lines)
		var serr error
		if st, serr = s.TenantStats("doomed"); serr == nil && st.Error != "" {
			break // the tenant went terminal
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never went terminal; last ingest error: %v", lastErr)
		}
		time.Sleep(time.Millisecond)
	}
	if st.WALFailures != maxDurableRestarts+1 {
		t.Fatalf("wal_failures = %d, want %d (cap + the terminal one)", st.WALFailures, maxDurableRestarts+1)
	}
	s.Kill()
}

// TestWALErrorHTTPMapping pins the wire contract: a durable-layer failure
// or an engine between incarnations surfaces as 503 with Retry-After and an
// explicit instruction to replay the stream from its beginning — the batch
// was not acknowledged, and the next incarnation numbers pushes from the
// start of the stream, so replaying the batch alone would miscount.
func TestWALErrorHTTPMapping(t *testing.T) {
	for _, err := range []error{
		&stream.DurableError{Layer: stream.LayerWAL, Err: errors.New("disk gone")},
		&stream.DurableError{Layer: stream.LayerEventStore, Err: errors.New("disk gone")},
		stream.ErrNotServing,
	} {
		rec := httptest.NewRecorder()
		writeIngestErr(rec, err)
		if rec.Code != 503 {
			t.Fatalf("%v: status = %d, want 503", err, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%v: missing Retry-After", err)
		}
		body := rec.Body.String()
		if !contains(body, "replay the stream from its beginning; acknowledged lines are skipped as duplicates") || contains(body, "replay the batch") {
			t.Fatalf("%v: body does not tell the client to replay the stream: %s", err, body)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
