package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/parsers/drain"
	"logparse/internal/stream"
)

// testMiner is a deterministic toy retrainer: it groups lines by (token
// count, first token), keeps groups with at least minSupport members, and
// wildcards positions whose values differ within the group. Determinism is
// what the kill-and-recover digest comparisons rely on.
type testMiner struct{ minSupport int }

func (m *testMiner) Name() string { return "test-miner" }

func (m *testMiner) Retrain(ctx context.Context, lines []string) ([]core.Template, error) {
	groups := make(map[string][][]string)
	for _, line := range lines {
		toks := core.Tokenize(line)
		if len(toks) == 0 {
			continue
		}
		key := fmt.Sprintf("%d|%s", len(toks), toks[0])
		groups[key] = append(groups[key], toks)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	minSupport := m.minSupport
	if minSupport <= 0 {
		minSupport = 3
	}
	var tmpls []core.Template
	for _, k := range keys {
		members := groups[k]
		if len(members) < minSupport {
			continue
		}
		tokens := append([]string(nil), members[0]...)
		for _, mem := range members[1:] {
			for i, tok := range mem {
				if tokens[i] != tok {
					tokens[i] = "*"
				}
			}
		}
		tmpls = append(tmpls, core.Template{ID: fmt.Sprintf("T%d", len(tmpls)+1), Tokens: tokens})
	}
	return tmpls, nil
}

// tenantLines draws tenant i's stream from the synthetic dataset catalogues
// (cycling the five systems), so the fleet carries genuinely heterogeneous
// multi-source traffic.
func tenantLines(tb testing.TB, i, n int) []string {
	tb.Helper()
	cat, err := gen.ByName(gen.Names[i%len(gen.Names)])
	if err != nil {
		tb.Fatal(err)
	}
	msgs := cat.Generate(int64(1000+i), n)
	lines := make([]string, len(msgs))
	for j, m := range msgs {
		lines[j] = m.Content
	}
	return lines
}

// testConfig is the base fleet config for tests: deterministic retrainer,
// small rings, frequent checkpoints.
func testConfig(root string) Config {
	return Config{
		CheckpointRoot: root,
		Stream: stream.Config{
			RingCapacity:    256,
			CheckpointEvery: 400,
			RetrainBatch:    64,
			Retrainer:       &testMiner{},
		},
	}
}

// ingest submits string lines through IngestBatch, the server's one ingest
// entry point.
func ingest(s *Server, tenant string, lines []string) (stream.PushResult, error) {
	batch := make([][]byte, len(lines))
	for i, l := range lines {
		batch[i] = []byte(l)
	}
	return s.IngestBatch(context.Background(), tenant, batch)
}

// ingestAll pushes a tenant's lines in batches, failing the test on any
// error.
func ingestAll(tb testing.TB, s *Server, tenant string, lines []string, batch int) stream.PushResult {
	tb.Helper()
	var total stream.PushResult
	for i := 0; i < len(lines); i += batch {
		end := i + batch
		if end > len(lines) {
			end = len(lines)
		}
		res, err := ingest(s, tenant, lines[i:end])
		if err != nil {
			tb.Fatalf("ingest %s batch at %d: %v", tenant, i, err)
		}
		total.Accepted += res.Accepted
		total.Skipped += res.Skipped
		total.Shed += res.Shed
	}
	return total
}

// waitTenantOffset polls until the tenant has processed through line n.
func waitTenantOffset(tb testing.TB, s *Server, tenant string, n int64) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.TenantStats(tenant)
		if err == nil && st.Stream.Offset >= n {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("tenant %s stuck at offset %d (err %v), want %d", tenant, st.Stream.Offset, err, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// digestsAfterRun runs an uninterrupted fleet over the given tenant streams
// and returns each tenant's reference digest.
func digestsAfterRun(tb testing.TB, cfg Config, streams map[string][]string) map[string]string {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for id, lines := range streams {
		ingestAll(tb, s, id, lines, 500)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		tb.Fatal(err)
	}
	out := make(map[string]string, len(streams))
	for id := range streams {
		st, err := s.TenantStats(id)
		if err != nil {
			tb.Fatal(err)
		}
		out[id] = st.Digest
	}
	return out
}

// TestMultiTenantIngestIsolatedDigests is the fleet smoke test: eight
// concurrent tenants with heterogeneous catalogues ingest in parallel,
// every line lands in its owner's engine, and two tenants fed the identical
// stream — founded concurrently with everyone else — converge to the
// identical digest: nothing of a tenant's outcome depends on its neighbours.
func TestMultiTenantIngestIsolatedDigests(t *testing.T) {
	const nTenants, perTenant = 8, 2000
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	streams := make(map[string][]string, nTenants)
	for i := 0; i < nTenants; i++ {
		streams[fmt.Sprintf("tenant-%d", i)] = tenantLines(t, i, perTenant)
	}
	// twin-a and twin-b get byte-identical streams: what else the fleet is
	// doing must not influence the parse outcome.
	twin := tenantLines(t, 0, perTenant)
	streams["twin-a"], streams["twin-b"] = twin, twin

	var wg sync.WaitGroup
	for id, lines := range streams {
		wg.Add(1)
		go func(id string, lines []string) {
			defer wg.Done()
			ingestAll(t, s, id, lines, 250)
		}(id, lines)
	}
	wg.Wait()
	for id := range streams {
		waitTenantOffset(t, s, id, perTenant)
	}

	st := s.Stats()
	if st.Tenants != nTenants+2 {
		t.Fatalf("tenant count = %d, want %d", st.Tenants, nTenants+2)
	}
	if want := int64((nTenants + 2) * perTenant); st.Accepted != want {
		t.Fatalf("fleet accepted = %d, want %d", st.Accepted, want)
	}
	if st.Panics+st.Restarts+st.WALFailures+st.EventStoreFailures != 0 {
		t.Fatalf("a healthy fleet reports restarts: %+v", st)
	}
	a, _ := s.TenantStats("twin-a")
	bSt, _ := s.TenantStats("twin-b")
	if a.Digest == "" || a.Digest != bSt.Digest {
		t.Fatalf("identical streams diverged: %s vs %s", a.Digest, bSt.Digest)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestWholeFleetKillAndRecover is the headline robustness property: SIGKILL
// the whole fleet mid-ingest, restart over the same checkpoint root, have
// every client replay its stream from the beginning, and every tenant's
// digest must equal the digest of an uninterrupted run.
func TestWholeFleetKillAndRecover(t *testing.T) {
	const nTenants, perTenant = 8, 3000
	streams := make(map[string][]string, nTenants)
	for i := 0; i < nTenants; i++ {
		streams[fmt.Sprintf("tenant-%d", i)] = tenantLines(t, i, perTenant)
	}
	want := digestsAfterRun(t, testConfig(t.TempDir()), streams)

	root := t.TempDir()
	s, err := New(testConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	// Pushers run until the kill tears the fleet down under them.
	var wg sync.WaitGroup
	for id, lines := range streams {
		wg.Add(1)
		go func(id string, lines []string) {
			defer wg.Done()
			for i := 0; i < len(lines); i += 100 {
				if _, err := ingest(s, id, lines[i:i+100]); err != nil {
					return // the fleet died under us, as intended
				}
			}
		}(id, lines)
	}
	// Let every tenant get past its first checkpoints, then pull the plug.
	for id := range streams {
		waitTenantOffset(t, s, id, 1000)
	}
	s.Kill()
	wg.Wait()

	s2, err := New(testConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	sawSkip := false
	for id, lines := range streams {
		st, err := s2.TenantStats(id)
		if err != nil {
			t.Fatalf("tenant %s not materialized from disk: %v", id, err)
		}
		if st.Stream.RecoveredFrom == "" || st.Stream.Offset == 0 {
			t.Fatalf("tenant %s did not restore a checkpoint: recovered %q offset %d",
				id, st.Stream.RecoveredFrom, st.Stream.Offset)
		}
		res := ingestAll(t, s2, id, lines, 250)
		if int64(res.Skipped) != st.Stream.Offset {
			t.Fatalf("tenant %s replay skipped %d, want the restored offset %d", id, res.Skipped, st.Stream.Offset)
		}
		sawSkip = sawSkip || res.Skipped > 0
	}
	if !sawSkip {
		t.Fatal("no tenant skipped replayed lines; the kill happened before any checkpoint")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for id := range streams {
		st, err := s2.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stream.Offset != perTenant {
			t.Fatalf("tenant %s resumed offset = %d, want %d", id, st.Stream.Offset, perTenant)
		}
		if st.Digest != want[id] {
			t.Fatalf("tenant %s resumed digest %s != uninterrupted digest %s", id, st.Digest, want[id])
		}
		if st.Stream.Shed != 0 {
			t.Fatalf("tenant %s shed %d lines under backpressure", id, st.Stream.Shed)
		}
	}
}

// TestPanicIsolationRestartsOnlyThatTenant injects a one-shot panic into
// one tenant's consumer. The supervisor must absorb it, rebuild that engine
// from its checkpoint, and — after the client replays — converge the
// tenant to the uninterrupted digest, while a sibling tenant streams on
// with zero panics.
func TestPanicIsolationRestartsOnlyThatTenant(t *testing.T) {
	const perTenant = 2000
	boom := tenantLines(t, 1, perTenant)
	calm := tenantLines(t, 2, perTenant)
	want := digestsAfterRun(t, testConfig(t.TempDir()), map[string][]string{"boom": boom, "calm": calm})

	cfg := testConfig(t.TempDir())
	var once sync.Once
	cfg.ConfigureEngine = func(tenant string, sc *stream.Config) {
		if tenant != "boom" {
			return
		}
		sc.AfterLine = func(lineNo int64) {
			if lineNo == 600 {
				// Fire exactly once: the rebuilt engine replays past line
				// 600 and must not trip again.
				fired := false
				once.Do(func() { fired = true })
				if fired {
					panic("injected consumer panic")
				}
			}
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ingestAll(t, s, "calm", calm, 250)
	// First pass: batches up to the one holding line 600, where the
	// consumer panics and takes the un-checkpointed tail of the ring with
	// it; stop at the first refusal. No later batch: one reaching the
	// rebuilt incarnation would be numbered as the start of the stream.
	for i := 0; i < 750; i += 250 {
		if _, err := ingest(s, "boom", boom[i:i+250]); err != nil {
			if !errors.Is(err, stream.ErrNotServing) {
				t.Fatalf("boom ingest: %v", err)
			}
			break
		}
	}
	// Wait for the supervisor to absorb the panic and restart the engine.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.TenantStats("boom")
		if err == nil && st.Restarts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never restarted the tenant: %+v (err %v)", st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Replay against the new incarnation: already-checkpointed lines are
	// skipped, the lost tail is re-admitted. Restarts moves before the new
	// incarnation serves, and a push it refuses before serving numbers
	// nothing, so the replay's first batch is retried until admitted.
	first, err := ingest(s, "boom", boom[:250])
	for errors.Is(err, stream.ErrNotServing) && first == (stream.PushResult{}) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		first, err = ingest(s, "boom", boom[:250])
	}
	if err != nil {
		t.Fatalf("replay's first batch: %v", err)
	}
	if res := ingestAll(t, s, "boom", boom[250:], 250); first.Skipped+res.Skipped == 0 {
		t.Fatalf("replay skipped nothing (%+v, then %+v); the restart did not restore a checkpoint", first, res)
	}
	waitTenantOffset(t, s, "boom", perTenant)
	waitTenantOffset(t, s, "calm", perTenant)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	bSt, _ := s.TenantStats("boom")
	cSt, _ := s.TenantStats("calm")
	if bSt.Panics != 1 || bSt.Restarts != 1 {
		t.Fatalf("boom panics/restarts = %d/%d, want 1/1", bSt.Panics, bSt.Restarts)
	}
	if bSt.Digest != want["boom"] {
		t.Fatalf("boom digest %s != uninterrupted %s", bSt.Digest, want["boom"])
	}
	if cSt.Panics != 0 || cSt.Restarts != 0 {
		t.Fatalf("sibling tenant was disturbed: panics/restarts = %d/%d", cSt.Panics, cSt.Restarts)
	}
	if cSt.Digest != want["calm"] {
		t.Fatalf("calm digest %s != uninterrupted %s", cSt.Digest, want["calm"])
	}
}

// fakeClock is a mutex-guarded manual clock for quota tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestNoisyTenantFairness floods one tenant past its quota while victims
// ingest within theirs. The quota must reject the flooder's excess whole
// batches with a retry hint, and the victims must shed nothing and lose
// nothing — per-tenant rings and quotas make overload a private problem.
func TestNoisyTenantFairness(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := testConfig(t.TempDir())
	cfg.Stream.Policy = stream.LoadShed // shedding is possible, so "shed 0" means something
	cfg.QuotaRate = 100
	cfg.QuotaBurst = 500
	cfg.Now = clk.Now
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	victims := []string{"victim-0", "victim-1", "victim-2"}
	victimLines := make(map[string][]string)
	for i, id := range victims {
		victimLines[id] = tenantLines(t, i, 400)
	}
	flood := tenantLines(t, 4, 5000)

	// The flooder burns its burst, then hammers; every batch past the
	// bucket must come back as a whole-batch quota rejection.
	if _, err := ingest(s, "flooder", flood[:500]); err != nil {
		t.Fatalf("flooder burst ingest: %v", err)
	}
	rejected := 0
	var lastQE *QuotaError
	for i := 500; i+250 <= len(flood); i += 250 {
		_, err := ingest(s, "flooder", flood[i:i+250])
		var qe *QuotaError
		if errors.As(err, &qe) {
			rejected++
			lastQE = qe
			continue
		}
		if err != nil {
			t.Fatalf("flooder ingest: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("the flooder was never quota-rejected")
	}
	if lastQE.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %s, want >= 1s", lastQE.RetryAfter)
	}

	// Victims ingest within quota, interleaved with the flood (two waves
	// of 200 lines with a second of refill between).
	for wave := 0; wave < 2; wave++ {
		for _, id := range victims {
			from := wave * 200
			if _, err := ingest(s, id, victimLines[id][from:from+200]); err != nil {
				t.Fatalf("victim %s wave %d: %v", id, wave, err)
			}
			// Drain between waves so a slow consumer can never make the
			// second wave overflow the ring — shed must mean "flood
			// damage", not test-induced pile-up.
			waitTenantOffset(t, s, id, int64(from+200))
		}
		clk.Advance(2 * time.Second) // refill 200 tokens
	}
	for _, id := range victims {
		waitTenantOffset(t, s, id, 400)
		st, err := s.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.QuotaRejected != 0 || st.Stream.Shed != 0 {
			t.Fatalf("victim %s paid for the flood: quota-rejected %d, shed %d",
				id, st.QuotaRejected, st.Stream.Shed)
		}
		if st.Stream.Offset != 400 {
			t.Fatalf("victim %s lost lines: offset %d, want 400", id, st.Stream.Offset)
		}
	}
	fSt, err := s.TenantStats("flooder")
	if err != nil {
		t.Fatal(err)
	}
	if fSt.QuotaRejected == 0 {
		t.Fatal("flooder stats show no quota rejections")
	}

	// After enough refill time the flooder is welcome again.
	clk.Advance(10 * time.Second)
	if _, err := ingest(s, "flooder", flood[500:600]); err != nil {
		t.Fatalf("flooder after refill: %v", err)
	}
	s.Kill()
}

// TestGracefulShutdownDrainsAndCheckpoints proves Shutdown's contract:
// every admitted line is processed, every tenant's closing checkpoint is
// written, later ingest is refused, and a restarted server materializes
// every tenant from disk at the drained offset and digest.
func TestGracefulShutdownDrainsAndCheckpoints(t *testing.T) {
	const perTenant = 1500
	root := t.TempDir()
	cfg := testConfig(root)
	cfg.Stream.CheckpointEvery = -1 // the only checkpoints are the closing ones
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]string{
		"alpha": tenantLines(t, 0, perTenant),
		"beta":  tenantLines(t, 1, perTenant),
		"gamma": tenantLines(t, 2, perTenant),
	}
	for id, lines := range streams {
		ingestAll(t, s, id, lines, 300)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if _, err := ingest(s, "alpha", []string{"late line"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("ingest after Shutdown = %v, want ErrDraining", err)
	}
	drained := make(map[string]TenantStats)
	for id := range streams {
		st, err := s.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stream.Offset != perTenant || st.Stream.RingDepth != 0 {
			t.Fatalf("tenant %s not drained: offset %d ring %d", id, st.Stream.Offset, st.Stream.RingDepth)
		}
		if st.Stream.Checkpoints != 1 {
			t.Fatalf("tenant %s checkpoints = %d, want exactly the closing one", id, st.Stream.Checkpoints)
		}
		drained[id] = st
	}

	s2, err := New(testConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	for id := range streams {
		st, err := s2.TenantStats(id) // materialized from disk, no ingest
		if err != nil {
			t.Fatal(err)
		}
		if st.Stream.Offset != perTenant || st.Digest != drained[id].Digest {
			t.Fatalf("tenant %s restored (offset %d, %s), want (offset %d, %s)",
				id, st.Stream.Offset, st.Digest, perTenant, drained[id].Digest)
		}
	}
	s2.Kill()
}

// TestCorruptTenantQuarantine rots every checkpoint generation of one
// tenant. On restart that tenant must start empty with the typed recovery
// error in its stats — and keep serving — while its neighbour restores
// cleanly.
func TestCorruptTenantQuarantine(t *testing.T) {
	const perTenant = 1200
	root := t.TempDir()
	cfg := testConfig(root)
	cfg.Stream.CheckpointEvery = 300 // several saves → both generations exist
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rotten := tenantLines(t, 0, perTenant)
	ingestAll(t, s, "rotten", rotten, 300)
	ingestAll(t, s, "healthy", tenantLines(t, 1, perTenant), 300)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"checkpoint.ckpt", "checkpoint.ckpt.prev"} {
		path := filepath.Join(root, "tenants", "rotten", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(testConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s2.TenantStats("rotten")
	if err != nil {
		t.Fatalf("quarantined tenant refused to serve: %v", err)
	}
	if st.Stream.RecoveredFrom != "reset" || st.Stream.RecoveryError == "" {
		t.Fatalf("rotten tenant = recovered %q, error %q; want reset + typed error",
			st.Stream.RecoveredFrom, st.Stream.RecoveryError)
	}
	if st.Stream.Offset != 0 {
		t.Fatalf("rotten tenant offset = %d, want an empty start", st.Stream.Offset)
	}
	hSt, err := s2.TenantStats("healthy")
	if err != nil {
		t.Fatal(err)
	}
	if hSt.Stream.Offset != perTenant || hSt.Stream.RecoveryError != "" {
		t.Fatalf("healthy tenant disturbed: offset %d, error %q", hSt.Stream.Offset, hSt.Stream.RecoveryError)
	}
	// The quarantined tenant re-learns its stream from line 1.
	if res := ingestAll(t, s2, "rotten", rotten, 300); res.Skipped != 0 {
		t.Fatalf("quarantined tenant skipped %d lines of a fresh stream", res.Skipped)
	}
	waitTenantOffset(t, s2, "rotten", perTenant)
	s2.Kill()
}

// TestTenantValidation covers the admission edges that keep tenant ids
// safe as directory names and the fleet bounded.
func TestTenantValidation(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxTenants = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	for _, bad := range []string{"", "../evil", ".hidden", "a/b", "white space", strings.Repeat("x", 65)} {
		var tie *TenantIDError
		if _, err := ingest(s, bad, []string{"x 1"}); !errors.As(err, &tie) {
			t.Fatalf("Ingest(%q) = %v, want TenantIDError", bad, err)
		}
	}
	if _, err := ingest(s, "t-1", []string{"x 1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(s, "t-2", []string{"x 1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(s, "t-3", []string{"x 1"}); !errors.Is(err, ErrTooManyTenants) {
		t.Fatalf("tenant over cap = %v, want ErrTooManyTenants", err)
	}
	if _, err := s.TenantStats("never-seen"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("stats for unknown tenant = %v, want ErrUnknownTenant", err)
	}
}

// TestOnlineModeFleet runs the fleet in online-parser mode: every tenant
// gets its own Drain learner from the NewOnline factory, learns in place on
// the hot path (no retrain cycle at all), and two tenants fed the identical
// stream converge to the identical digest. Also pins the constructor
// guards: a learner instance in Stream.Online is rejected (it would be
// shared across tenants), and a failing factory surfaces as an ingest
// error, not a half-built tenant.
func TestOnlineModeFleet(t *testing.T) {
	cfg := Config{
		CheckpointRoot: t.TempDir(),
		Stream: stream.Config{
			RingCapacity:    256,
			CheckpointEvery: 400,
		},
		NewOnline: func(tenant string) (stream.OnlineParser, error) {
			if tenant == "badfactory" {
				return nil, errors.New("no learner for you")
			}
			return drain.NewStream(drain.Options{}), nil
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := tenantLines(t, 0, 1500)
	ingestAll(t, s, "alpha", lines, 300)
	ingestAll(t, s, "beta", lines, 300)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ingest(s, "badfactory", []string{"x"}); err == nil {
		t.Error("failing NewOnline factory did not fail ingest")
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, id := range []string{"alpha", "beta"} {
		st, err := s.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stream.OnlineParser != "Drain" {
			t.Errorf("tenant %s OnlineParser = %q, want Drain", id, st.Stream.OnlineParser)
		}
		if st.Stream.Retrains != 0 {
			t.Errorf("tenant %s retrained %d times in online mode", id, st.Stream.Retrains)
		}
		if st.Stream.Matched != int64(len(lines)) {
			t.Errorf("tenant %s matched %d of %d", id, st.Stream.Matched, len(lines))
		}
		digests = append(digests, st.Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("identical streams diverged: %s vs %s", digests[0], digests[1])
	}

	shared := cfg
	shared.CheckpointRoot = t.TempDir()
	shared.NewOnline = nil
	shared.Stream.Online = drain.NewStream(drain.Options{})
	if _, err := New(shared); err == nil {
		t.Error("shared Stream.Online learner accepted")
	}
}
