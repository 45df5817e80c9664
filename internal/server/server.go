// Package server is the multi-tenant ingestion service: the
// promotion of the crash-safe stream engine from a single-process,
// single-tenant daemon to a network service that survives the failure
// modes of shared infrastructure. Both follow-up evaluations (Zhu et al.,
// ICSE'19; Petrescu et al., 2023) stress that production parsers run
// continuously over heterogeneous multi-source traffic — and in that
// setting one tenant's garbage input, flood, or rotted checkpoint must
// degrade that tenant only, never the fleet.
//
// Architecture: one map of tenants under one lock that is never held
// across I/O. The tenant is the unit of fault isolation: each owns a full
// stream.Engine — admission ring, retrain breaker, atomic checkpoint
// generations, WAL, event store — running in push mode under a supervisor
// goroutine, and only a tenant's own callers ever wait on its recovery.
// The isolation properties, each proven by a test:
//
//   - noisy-tenant fairness: per-tenant token-bucket quotas reject a
//     flooder's batches with 429/Retry-After before admission, and
//     per-tenant rings mean a deep backlog belongs to the tenant that
//     built it — victim tenants shed nothing;
//
//   - panic isolation: a panic anywhere in a tenant's consumer (matcher,
//     retrainer, instrumentation hook) unwinds only that engine; the
//     supervisor counts it, rebuilds the engine from its newest
//     trustworthy checkpoint, and resumes serving while every other
//     tenant streams on undisturbed;
//
//   - corrupt-state quarantine: a tenant whose checkpoint generations all
//     fail verification starts empty, each base's *seglog.CorruptError in
//     its stats, instead of refusing to serve (stream.New absorbs them);
//
//   - whole-fleet crash recovery: every tenant checkpoints independently,
//     so after a SIGKILL a restarted server resumes each tenant from its
//     own durable offset; clients replay their streams and the engines
//     skip what they already know — the resumed canonical digest equals
//     the uninterrupted one, per tenant;
//
//   - graceful shutdown: Shutdown stops admission (503 + Retry-After),
//     drains every tenant's ring, and writes every tenant's closing
//     checkpoint before returning.
//
// The HTTP surface (Handler) is deliberately small: POST /v1/ingest with
// newline-delimited lines, per-tenant and aggregate stats, and the
// healthz/readyz pair. cmd/logstreamd -listen serves it.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logparse/internal/stream"
	"logparse/internal/telemetry"
)

// Config configures a Server. CheckpointRoot is required; zero values
// elsewhere mean the documented defaults.
type Config struct {
	// CheckpointRoot is the directory holding per-tenant state; tenant id
	// T checkpoints under <root>/tenants/<T>/.
	CheckpointRoot string
	// Stream is the engine template every tenant's config starts from.
	// Per tenant, CheckpointDir and EventStoreDir are overwritten with the
	// tenant's directories (EventStoreDir empty without EventsRoot), and
	// WALDir likewise (empty without WAL). Now is filled with the
	// server's clock only when nil. Retrainer is replaced by
	// NewRetrainer's when that is set, else it is shared across tenants
	// (nil: each engine builds the stream default). Online must be nil; it
	// comes from NewOnline. Everything else (ring budget, checkpoint
	// cadence, retrain batch, policy, WAL sync policy and segment size,
	// event block size) is copied, and ConfigureEngine sees the result
	// last. The zero value means the stream package defaults.
	Stream stream.Config
	// WAL enables a per-tenant write-ahead log under
	// <root>/tenants/<T>/wal: every acknowledged ingest batch is durable
	// before its 200, and a restarted server replays each tenant's WAL
	// tail beyond its checkpoint — no acknowledged line is lost to a
	// kill -9, without waiting on client replay. The durability knobs
	// (Stream.WALSync, Stream.WALSegmentBytes) come from the template.
	WAL bool
	// EventsRoot, when non-empty, enables the per-tenant parsed-event
	// store: tenant T's per-line parse decisions are recorded under
	// <EventsRoot>/tenants/<T> as compressed, checksummed blocks, kept in
	// exact count parity with the tenant's checkpoints, and served
	// read-only through GET /v1/query and the logquery CLI. The block size
	// comes from the template (Stream.EventStoreBlockBytes).
	EventsRoot string
	// NewRetrainer builds a tenant's retrainer (nil = the stream default,
	// or Stream.Retrainer shared across tenants if set). Per-tenant
	// retrainers keep one tenant's poisoned retrain input out of its
	// neighbours' mining.
	NewRetrainer func(tenant string) (stream.Retrainer, error)
	// NewOnline builds a tenant's online parser, switching every tenant
	// engine to online-parser mode (learn-per-line, no retrain cycle).
	// Learners hold per-engine mutable state, so a fresh instance per
	// tenant is mandatory — that is why this is a factory and Stream.Online
	// is rejected as a template field. Nil keeps retrain mode.
	NewOnline func(tenant string) (stream.OnlineParser, error)
	// QuotaRate is the per-tenant admission quota in lines/sec (0 =
	// unlimited). A batch that exceeds the tenant's available tokens is
	// rejected whole with 429 and a Retry-After, so clients can replay it
	// verbatim.
	QuotaRate float64
	// QuotaBurst is the token-bucket depth in lines (default: one
	// second's worth, i.e. QuotaRate).
	QuotaBurst float64
	// MaxBodyBytes bounds one ingest request body (default 1 MiB);
	// larger requests get 413.
	MaxBodyBytes int64
	// RequestTimeout bounds one HTTP request end to end (default 30s;
	// negative disables). A tenant too slow to admit its batch within
	// the deadline gets 503 — and only that tenant does.
	RequestTimeout time.Duration
	// MaxTenants caps the number of live tenants, those still recovering
	// included (default 1024).
	MaxTenants int
	// Telemetry, when non-nil, publishes fleet-level server.* metrics.
	// Engines run without per-tenant telemetry (hundreds of tenants'
	// instruments would sum in one registry; TenantStats is the per-tenant
	// account); use ConfigureEngine to instrument a specific tenant.
	Telemetry *telemetry.Handle
	// Now is the server clock (quota refill, engine clocks). Defaults to
	// time.Now; tests inject a fake.
	Now func() time.Time
	// ConfigureEngine, when non-nil, is called with each new tenant's
	// engine config before construction — the test seam for fault
	// injection (panicking hooks, slow consumers, torn checkpoint writers).
	ConfigureEngine func(tenant string, cfg *stream.Config)
}

// Typed ingest failures; the HTTP layer maps each to a status code.
var (
	// ErrDraining rejects ingest during graceful shutdown (503).
	ErrDraining = errors.New("server: draining, not accepting ingest")
	// ErrTooManyTenants rejects a new tenant beyond MaxTenants (503).
	ErrTooManyTenants = errors.New("server: tenant limit reached")
	// ErrUnknownTenant reports a stats query for a tenant with no live
	// engine and no on-disk state (404).
	ErrUnknownTenant = errors.New("server: unknown tenant")
)

// TenantIDError reports a malformed tenant id (400).
type TenantIDError struct{ ID string }

func (e *TenantIDError) Error() string {
	return fmt.Sprintf("server: invalid tenant id %q (want %s)", e.ID, tenantIDRe.String())
}

// QuotaError reports a batch rejected by the tenant's admission quota
// (429, or 413 when the batch can never fit the bucket).
type QuotaError struct {
	// RetryAfter is how long until the bucket can admit the batch.
	RetryAfter time.Duration
	// Rejected is the number of lines in the rejected batch.
	Rejected int
	// Permanent marks a batch larger than the bucket itself — waiting
	// will not help; the client must split it.
	Permanent bool
}

func (e *QuotaError) Error() string {
	if e.Permanent {
		return fmt.Sprintf("server: batch of %d lines exceeds the quota burst; split it", e.Rejected)
	}
	return fmt.Sprintf("server: quota exceeded (%d lines rejected, retry after %s)", e.Rejected, e.RetryAfter)
}

// tenantIDRe is the shape of a tenant id: it becomes a directory name, so
// it must not traverse, hide, or collide.
var tenantIDRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Server is the multi-tenant ingestion service. Build one with New, expose
// Handler over HTTP (or call IngestBatch directly), and end it with
// Shutdown (graceful: drain + checkpoint everything) or Kill (the crash
// model: nothing after the last checkpoints survives).
type Server struct {
	cfg  Config
	now  func() time.Time
	tm   serverTelemetry
	ctx  context.Context
	kill context.CancelFunc

	// mu guards draining and the tenant map, nothing else, and is never held
	// across I/O or a wait — an ingest request takes it once, to find its
	// tenant, and a tenant's recovery is waited for on the tenant's own
	// ready channel.
	mu       sync.Mutex
	draining bool
	tenants  map[string]*tenant

	accepted atomic.Int64
	skipped  atomic.Int64
	shed     atomic.Int64
}

// New builds a server. Tenants materialize lazily on first ingest (or on a
// stats query when their checkpoint directory already exists).
func New(cfg Config) (*Server, error) {
	if cfg.CheckpointRoot == "" {
		return nil, errors.New("server: Config.CheckpointRoot is required")
	}
	if cfg.Stream.Online != nil {
		return nil, errors.New("server: set Config.NewOnline, not Stream.Online — learners hold per-engine state and must not be shared across tenants")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.QuotaBurst <= 0 {
		cfg.QuotaBurst = cfg.QuotaRate
	}
	if err := os.MkdirAll(filepath.Join(cfg.CheckpointRoot, "tenants"), 0o755); err != nil {
		return nil, fmt.Errorf("server: checkpoint root: %w", err)
	}
	if cfg.EventsRoot != "" {
		if err := os.MkdirAll(filepath.Join(cfg.EventsRoot, "tenants"), 0o755); err != nil {
			return nil, fmt.Errorf("server: events root: %w", err)
		}
	}
	ctx, kill := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		now:     cfg.Now,
		tm:      newServerTelemetry(cfg.Telemetry),
		ctx:     ctx,
		kill:    kill,
		tenants: make(map[string]*tenant),
	}, nil
}

// IngestBatch pushes one batch of raw line bytes for a tenant — the path
// behind the newline-delimited HTTP batch body — creating the tenant's
// engine on first contact. The flow is: tenant resolution (refused while
// draining), quota charge for the lines that advance the numbering, then
// stream.Engine.PushBatch (which copies the lines into pooled batches at
// admission, so the caller may reuse the backing buffer once IngestBatch
// returns) and the fleet-level accounting of its result. The returned
// PushResult accounts for every line: admitted, replay-skipped, or shed.
// Errors are the typed ingest failures above, a stream.ErrNotServing
// (engine restarting after a panic — retry), or a tenant's terminal serve
// error. ctx bounds the wait for this tenant's own recovery and admission
// entry (see PushBatch), nothing else.
func (s *Server) IngestBatch(ctx context.Context, tenantID string, lines [][]byte) (stream.PushResult, error) {
	t, err := s.tenant(ctx, tenantID, true)
	if err != nil {
		return stream.PushResult{}, err
	}
	n := countNonEmpty(lines)
	if ok, retry, permanent := t.quota.take(n); !ok {
		t.mu.Lock()
		t.quotaRejected += int64(n)
		t.mu.Unlock()
		return stream.PushResult{}, &QuotaError{RetryAfter: retry, Rejected: n, Permanent: permanent}
	}
	res, err := t.pushBatch(ctx, lines)
	s.accepted.Add(int64(res.Accepted))
	s.skipped.Add(int64(res.Skipped))
	s.shed.Add(int64(res.Shed))
	return res, err
}

// countNonEmpty counts the lines that will advance the tenant's stream
// numbering — the quota charges for real lines, not blank separators.
func countNonEmpty(lines [][]byte) int {
	n := 0
	for _, l := range lines {
		if len(l) > 0 {
			n++
		}
	}
	return n
}

// tenant resolves a tenant and waits, bounded by ctx, until its engine is
// built. An ingest is refused while draining and founds the tenant on first
// contact; any other caller materializes an unknown tenant only when its
// checkpoint directory already exists on disk (a stats query after a
// restart), else ErrUnknownTenant.
func (s *Server) tenant(ctx context.Context, id string, ingest bool) (*tenant, error) {
	if !tenantIDRe.MatchString(id) {
		return nil, &TenantIDError{ID: id}
	}
	t, mine, err := s.entry(id, ingest, ingest)
	if err == nil && t == nil {
		if _, serr := os.Stat(s.tenantDir(id)); serr != nil {
			return nil, ErrUnknownTenant
		}
		t, mine, err = s.entry(id, false, true)
	}
	if err != nil {
		return nil, err
	}
	if mine {
		s.build(t)
	}
	if err := t.wait(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// entry looks a tenant up, reserving its place in the map when it has none
// and reserve is set. Draining check, cap check and insert are one critical
// section: MaxTenants is exact however many first contacts race, and no
// tenant appears behind a drain's back. mine tells the one caller that made
// the reservation to build the tenant; everyone else waits on it.
func (s *Server) entry(id string, ingest, reserve bool) (t *tenant, mine bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t = s.tenants[id]
	switch {
	case s.draining && (ingest || t == nil && reserve):
		return nil, false, ErrDraining
	case t != nil || !reserve:
		return t, false, nil
	case len(s.tenants) >= s.cfg.MaxTenants:
		return nil, false, ErrTooManyTenants
	}
	t = &tenant{id: id, srv: s, ready: make(chan struct{}), done: make(chan struct{})}
	s.tenants[id] = t
	return t, true, nil
}

func (s *Server) tenantDir(id string) string {
	return filepath.Join(s.cfg.CheckpointRoot, "tenants", id)
}

// eventsDir is tenant id's event-store directory ("" when the store is
// disabled fleet-wide).
func (s *Server) eventsDir(id string) string {
	if s.cfg.EventsRoot == "" {
		return ""
	}
	return filepath.Join(s.cfg.EventsRoot, "tenants", id)
}

// engineConfig is tenant id's copy of the engine template.
func (s *Server) engineConfig(id string) (stream.Config, error) {
	cfg := s.cfg.Stream
	cfg.CheckpointDir = s.tenantDir(id)
	cfg.WALDir = "" // never share one WAL across tenants
	if s.cfg.WAL {
		cfg.WALDir = filepath.Join(s.tenantDir(id), "wal")
	}
	cfg.EventStoreDir = s.eventsDir(id) // nor one event store
	if cfg.Now == nil {
		cfg.Now = s.now
	}
	if s.cfg.NewRetrainer != nil {
		rt, err := s.cfg.NewRetrainer(id)
		if err != nil {
			return cfg, fmt.Errorf("server: retrainer for tenant %s: %w", id, err)
		}
		cfg.Retrainer = rt
	}
	if s.cfg.NewOnline != nil {
		op, err := s.cfg.NewOnline(id)
		if err != nil {
			return cfg, fmt.Errorf("server: online parser for tenant %s: %w", id, err)
		}
		cfg.Online = op
	}
	if s.cfg.ConfigureEngine != nil {
		s.cfg.ConfigureEngine(id, &cfg)
	}
	return cfg, nil
}

// build makes a reserved tenant serve: it builds the engine (restoring its
// checkpoint, or quarantining corrupt generations into an empty start),
// launches the supervised serve loop and waits for the WAL replay to open
// admission — all on the goroutine of the caller that made the reservation
// and outside s.mu, so nobody but this tenant's own callers waits for it. A
// failed construction takes the reservation back, which frees the id for a
// retry, and every waiter gets the error.
func (s *Server) build(t *tenant) {
	defer close(t.ready)
	cfg, err := s.engineConfig(t.id)
	if err == nil {
		if t.eng, err = stream.New(cfg); err != nil {
			err = fmt.Errorf("server: engine for tenant %s: %w", t.id, err)
		}
	}
	if err != nil {
		t.buildErr = err
		s.mu.Lock()
		delete(s.tenants, t.id)
		s.mu.Unlock()
		return
	}
	if t.eng.Stats().RecoveredFrom == "reset" {
		s.tm.corruptResets.Inc()
	}
	t.engCfg = cfg
	t.quota = newBucket(s.cfg.QuotaRate, s.cfg.QuotaBurst, s.now)
	go t.supervise(s.ctx)
	// Handshake: don't hand the tenant out until its serve loop admits
	// pushes, or the first ingest would race the loop's startup. A killed
	// server (ctx done) skips the wait; pushes then fail typed.
	_ = t.eng.WaitServing(s.ctx)
}

// TenantStats returns one tenant's snapshot, materializing it from disk if
// it has durable state but no live engine yet.
func (s *Server) TenantStats(id string) (TenantStats, error) {
	// No deadline of its own: the wait ends with the tenant's build, and Kill
	// cuts that short.
	t, err := s.tenant(context.Background(), id, false)
	if err != nil {
		return TenantStats{}, err
	}
	return t.stats(), nil
}

// snapshot returns every tenant in the map — those still under construction
// included — ordered by id, and whether the server is draining. drain
// starts the drain in the same critical section, so the snapshot is final.
func (s *Server) snapshot(drain bool) ([]*tenant, bool) {
	s.mu.Lock()
	s.draining = s.draining || drain
	draining := s.draining
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *tenant) int { return strings.Compare(a.id, b.id) })
	return out, draining
}

// Stats returns the fleet snapshot. It never waits on a tenant's recovery.
func (s *Server) Stats() Stats {
	tenants, draining := s.snapshot(false)
	st := Stats{
		Tenants:  len(tenants),
		Draining: draining,
		Accepted: s.accepted.Load(),
		Skipped:  s.skipped.Load(),
		Shed:     s.shed.Load(),
	}
	for _, t := range tenants {
		t.mu.Lock()
		st.QuotaRejected += t.quotaRejected
		st.Panics += t.panics
		st.Restarts += t.restarts
		st.WALFailures += t.walFailures
		st.EventStoreFailures += t.storeFailures
		t.mu.Unlock()
	}
	return st
}

// Shutdown drains the fleet gracefully: admission stops (ErrDraining /
// 503), every tenant's producer-side input closes, every admitted line is
// processed, and every tenant writes its closing checkpoint. Returns the
// first tenant's terminal error, or ctx's error if the deadline expires
// before the fleet drains. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	tenants, _ := s.snapshot(true)
	// Stop what already serves first: the fleet drains in parallel while a
	// tenant still recovering is waited for below.
	for _, t := range tenants {
		if t.built() {
			t.stop()
		}
	}
	var firstErr error
	for _, t := range tenants {
		if err := t.wait(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // its construction failed: nothing to drain
		}
		t.stop()
		select {
		case <-t.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		t.mu.Lock()
		if t.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tenant %s: %w", t.id, t.err)
		}
		t.mu.Unlock()
	}
	return firstErr
}

// Kill hard-stops the fleet without checkpointing — the in-process stand-in
// for SIGKILL that the whole-fleet crash-recovery tests use. Every engine
// dies mid-flight; everything after each tenant's last checkpoint is
// deliberately forgotten, exactly like a power cut.
func (s *Server) Kill() {
	tenants, _ := s.snapshot(true)
	s.kill()
	for _, t := range tenants {
		if t.wait(context.Background()) == nil {
			<-t.done
		}
	}
}
