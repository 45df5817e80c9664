package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logparse/internal/faultinject"
	"logparse/internal/stream"
)

// TestTenantRecoveryDoesNotStallNeighbours restarts a fleet over a WAL tail
// whose owner replays it through a slow consumer. While that tenant's first
// contact is still waiting for the replay, a neighbour's first ingest and
// the fleet snapshot must return at once: a tenant's recovery is waited for
// by its own callers only.
func TestTenantRecoveryDoesNotStallNeighbours(t *testing.T) {
	const tail, prompt = 400, 50 * time.Millisecond
	cfg := walTestConfig(t.TempDir())
	cfg.Stream.CheckpointEvery = -1 // recovery comes from the WAL alone
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, "slow", tenantLines(t, 0, tail), 100)
	s.Kill()

	slow := &faultinject.SlowShard{PerLine: 5 * time.Millisecond}
	cfg.ConfigureEngine = func(tenant string, sc *stream.Config) {
		if tenant == "slow" {
			sc.AfterLine = slow.AfterLine
		}
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	recovered := make(chan error, 1)
	go func() {
		_, err := ingest(s2, "slow", []string{"one more line"})
		recovered <- err
	}()
	recovering := func() bool {
		s2.mu.Lock()
		defer s2.mu.Unlock()
		slow := s2.tenants["slow"]
		return slow != nil && !slow.built()
	}
	for deadline := time.Now().Add(10 * time.Second); !recovering(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the recovering tenant never reserved its place")
		}
	}
	// promptly repeats f — a loaded host may hiccup — until one call returns
	// within the bound; every call must return while the replay still runs.
	promptly := func(what string, f func(try int)) {
		t.Helper()
		for try := 0; ; try++ {
			start := time.Now()
			f(try)
			d := time.Since(start)
			if !recovering() {
				t.Fatalf("%s (try %d, %s) outlasted its neighbour's recovery", what, try, d)
			}
			if d < prompt {
				return
			}
			t.Logf("%s took %s (try %d), want < %s; trying again while the replay lasts", what, d, try, prompt)
		}
	}
	promptly("Stats", func(int) {
		if got := s2.Stats().Tenants; got < 1 {
			t.Errorf("Stats().Tenants = %d, want the recovering tenant counted", got)
		}
	})
	promptly("a neighbour's first ingest", func(try int) {
		if _, err := ingest(s2, fmt.Sprintf("fast-%d", try), tenantLines(t, 1, 100)); err != nil {
			t.Errorf("neighbour ingest: %v", err)
		}
	})
	if err := <-recovered; err != nil {
		t.Fatalf("the recovering tenant's own first ingest: %v", err)
	}
	st, err := s2.TenantStats("slow")
	if err != nil || st.Stream.WALReplayed != tail {
		t.Fatalf("slow tenant replayed %d WAL lines (err %v), want %d", st.Stream.WALReplayed, err, tail)
	}
}

// TestMaxTenantsIsExactUnderConcurrency races sixteen first contacts against
// a cap of two: the cap check and the reservation are one critical section,
// so exactly two tenants come to life and every other caller is refused.
func TestMaxTenantsIsExactUnderConcurrency(t *testing.T) {
	const contacts, limit = 16, 2
	cfg := testConfig(t.TempDir())
	cfg.MaxTenants = limit
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	var admitted, refused atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < contacts; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			<-start
			switch _, err := ingest(s, id, []string{"hello world"}); {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrTooManyTenants):
				refused.Add(1)
			default:
				t.Errorf("tenant %s: %v", id, err)
			}
		}(fmt.Sprintf("t%d", i))
	}
	close(start)
	wg.Wait()
	if a, r, live := admitted.Load(), refused.Load(), s.Stats().Tenants; a != limit || r != contacts-limit || live != limit {
		t.Fatalf("admitted %d, refused %d, live %d; want %d, %d, %d", a, r, live, limit, contacts-limit, limit)
	}
}

// TestFailedTenantConstructionFreesTheID fails a tenant's engine build while
// other callers wait on it: every waiter gets the build's error (one whose
// context ends first gets that instead), the reservation is taken back — the
// tenant count is what it was — and the same id can be founded afterwards.
func TestFailedTenantConstructionFreesTheID(t *testing.T) {
	root := t.TempDir()
	notADir := filepath.Join(root, "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(root)
	var fail atomic.Bool
	fail.Store(true)
	entered, gate := make(chan struct{}, 8), make(chan struct{})
	cfg.ConfigureEngine = func(tenant string, sc *stream.Config) {
		if fail.Load() {
			entered <- struct{}{}
			<-gate
			sc.CheckpointDir = filepath.Join(notADir, "below") // stream.New cannot create it
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	errs := make(chan error, 8)
	contact := func(ctx context.Context) {
		_, err := s.IngestBatch(ctx, "doomed", [][]byte{[]byte("hello world")})
		errs <- err
	}
	go contact(context.Background())
	<-entered // the builder holds the reservation, inside its construction
	ctx, cancel := context.WithCancel(context.Background())
	go contact(ctx)
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("a waiter whose context ended got %v, want context.Canceled", err)
	}
	for i := 0; i < 6; i++ {
		go contact(context.Background())
	}
	if got := s.Stats().Tenants; got != 1 {
		t.Fatalf("tenants during construction = %d, want the one reservation", got)
	}
	close(gate)
	for i := 0; i < 7; i++ {
		err := <-errs
		var pe *os.PathError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d got %v, want the engine build's path error", i, err)
		}
	}
	if got := s.Stats().Tenants; got != 0 {
		t.Fatalf("tenants after the failed construction = %d, want 0", got)
	}
	fail.Store(false)
	if _, err := ingest(s, "doomed", []string{"hello world"}); err != nil {
		t.Fatalf("founding the same id after the failure: %v", err)
	}
	if got := s.Stats().Tenants; got != 1 {
		t.Fatalf("tenants after the retry = %d, want 1", got)
	}
}
