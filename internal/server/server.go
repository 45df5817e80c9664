// Package server is the sharded multi-tenant ingestion service: the
// promotion of the crash-safe stream engine from a single-process,
// single-tenant daemon to a network service that survives the failure
// modes of shared infrastructure. Both follow-up evaluations (Zhu et al.,
// ICSE'19; Petrescu et al., 2023) stress that production parsers run
// continuously over heterogeneous multi-source traffic — and in that
// setting one tenant's garbage input, flood, or rotted checkpoint must
// degrade that tenant only, never the fleet.
//
// Architecture: tenants are hash-sharded (FNV-1a) across N shards. A
// shard is the unit of placement and fault isolation; within it every
// tenant owns a full stream.Engine — admission ring, retrain breaker,
// atomic checkpoint generations — running in push mode under a supervisor
// goroutine. The isolation properties, each proven by a test:
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
//     fail verification starts empty with the typed error in its stats
//     instead of refusing to serve (stream.AllCorruptError absorption);
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
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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
	// Shards is the number of fault-isolation shards tenants are hashed
	// across (default 4).
	Shards int
	// Stream is the engine template applied to every tenant. Open,
	// CheckpointDir, WALDir and Now are overwritten per tenant; everything
	// else (ring capacity, checkpoint cadence, retrain batch, policy,
	// breaker, WAL sync policy and segment size) is copied. The zero value
	// means the stream package defaults.
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
	// read-only through GET /v1/query and the logquery CLI.
	EventsRoot string
	// EventBlockBytes overrides the event store's target block size for
	// every tenant (0 = the Stream template's value, or the eventstore
	// default).
	EventBlockBytes int
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
	// negative disables). A tenant whose shard is too slow to admit its
	// batch within the deadline gets 503 — and only that tenant does.
	RequestTimeout time.Duration
	// MaxTenants caps the number of live tenants (default 1024).
	MaxTenants int
	// Telemetry, when non-nil, publishes fleet-level server.* metrics.
	// Engines run without per-tenant telemetry (gauges from hundreds of
	// tenants would fight over one registry); use ConfigureEngine to
	// instrument a specific tenant.
	Telemetry *telemetry.Handle
	// Now is the server clock (quota refill, engine clocks). Defaults to
	// time.Now; tests inject a fake.
	Now func() time.Time
	// ConfigureEngine, when non-nil, is called with each new tenant's
	// engine config before construction — the test seam for fault
	// injection (panicking hooks, slow shards, torn checkpoint writers).
	ConfigureEngine func(tenant string, shard int, cfg *stream.Config)
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

// Server is the sharded multi-tenant ingestion service. Build one with
// New, expose Handler over HTTP (or call IngestBatch directly), and end it with
// Shutdown (graceful: drain + checkpoint everything) or Kill (the crash
// model: nothing after the last checkpoints survives).
type Server struct {
	cfg    Config
	now    func() time.Time
	tm     serverTelemetry
	ctx    context.Context
	kill   context.CancelFunc
	shards []*shard

	mu       sync.Mutex
	draining bool
	tenantN  int

	accepted      atomic.Int64
	skipped       atomic.Int64
	shed          atomic.Int64
	quotaRejected atomic.Int64
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
	if cfg.Shards <= 0 {
		cfg.Shards = 4
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
	s := &Server{
		cfg:  cfg,
		now:  cfg.Now,
		tm:   newServerTelemetry(cfg.Telemetry),
		ctx:  ctx,
		kill: kill,
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{id: i, srv: s, tenants: make(map[string]*tenant)})
	}
	return s, nil
}

// shardFor maps a tenant id to its shard (stable FNV-1a placement).
func (s *Server) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[int(h.Sum32()%uint32(len(s.shards)))]
}

// IngestBatch pushes one batch of raw line bytes for a tenant — the path
// behind the newline-delimited HTTP batch body — creating the tenant's
// engine on first contact. The flow is: draining check, tenant resolution,
// quota charge for the lines that advance the numbering, then
// stream.Engine.PushBatch (which copies the lines into pooled arenas at
// admission, so the caller may reuse the backing buffer once IngestBatch
// returns) and the fleet-level accounting of its result. The returned
// PushResult accounts for every line: admitted, replay-skipped, or shed.
// Errors are the typed ingest failures above, a stream.ErrNotServing
// (engine restarting after a panic — retry), or a tenant's terminal serve
// error. ctx bounds admission entry only (see PushBatch).
func (s *Server) IngestBatch(ctx context.Context, tenantID string, lines [][]byte) (stream.PushResult, error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return stream.PushResult{}, ErrDraining
	}
	t, err := s.tenant(tenantID, true)
	if err != nil {
		return stream.PushResult{}, err
	}
	n := countNonEmpty(lines)
	if ok, retry, permanent := t.quota.take(n); !ok {
		t.mu.Lock()
		t.quotaRejected += int64(n)
		t.mu.Unlock()
		s.quotaRejected.Add(int64(n))
		s.tm.quotaRejected.Add(uint64(n))
		return stream.PushResult{}, &QuotaError{RetryAfter: retry, Rejected: n, Permanent: permanent}
	}
	res, err := t.pushBatch(ctx, lines)
	s.accepted.Add(int64(res.Accepted))
	s.skipped.Add(int64(res.Skipped))
	s.shed.Add(int64(res.Shed))
	s.tm.accepted.Add(uint64(res.Accepted))
	s.tm.skipped.Add(uint64(res.Skipped))
	s.tm.shed.Add(uint64(res.Shed))
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

// tenant resolves a tenant, optionally creating it. With create=false an
// unknown tenant materializes only when its checkpoint directory already
// exists on disk (a stats query after a restart), else ErrUnknownTenant.
func (s *Server) tenant(id string, create bool) (*tenant, error) {
	if !tenantIDRe.MatchString(id) {
		return nil, &TenantIDError{ID: id}
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	t, ok := sh.tenants[id]
	sh.mu.Unlock()
	if ok {
		return t, nil
	}
	if !create {
		if _, err := os.Stat(s.tenantDir(id)); err != nil {
			return nil, ErrUnknownTenant
		}
	}
	return s.createTenant(sh, id)
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

// createTenant builds a tenant's engine (restoring its checkpoint, or
// quarantining corrupt generations into an empty start) and launches its
// supervised serve loop on the tenant's shard.
func (s *Server) createTenant(sh *shard, id string) (*tenant, error) {
	s.mu.Lock()
	if s.tenantN >= s.cfg.MaxTenants {
		s.mu.Unlock()
		return nil, ErrTooManyTenants
	}
	s.mu.Unlock()

	cfg := s.cfg.Stream // copy of the template
	cfg.Open = nil
	cfg.CheckpointDir = s.tenantDir(id)
	cfg.WALDir = "" // never share one WAL across tenants
	if s.cfg.WAL {
		cfg.WALDir = filepath.Join(s.tenantDir(id), "wal")
	}
	cfg.EventStoreDir = "" // never share one event store across tenants
	if s.cfg.EventsRoot != "" {
		cfg.EventStoreDir = s.eventsDir(id)
		if s.cfg.EventBlockBytes > 0 {
			cfg.EventStoreBlockBytes = s.cfg.EventBlockBytes
		}
	}
	if cfg.Now == nil {
		cfg.Now = s.now
	}
	if s.cfg.NewRetrainer != nil {
		rt, err := s.cfg.NewRetrainer(id)
		if err != nil {
			return nil, fmt.Errorf("server: retrainer for tenant %s: %w", id, err)
		}
		cfg.Retrainer = rt
	}
	if s.cfg.NewOnline != nil {
		op, err := s.cfg.NewOnline(id)
		if err != nil {
			return nil, fmt.Errorf("server: online parser for tenant %s: %w", id, err)
		}
		cfg.Online = op
	}
	if s.cfg.ConfigureEngine != nil {
		s.cfg.ConfigureEngine(id, sh.id, &cfg)
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t, ok := sh.tenants[id]; ok { // lost the creation race
		return t, nil
	}
	eng, err := stream.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: engine for tenant %s: %w", id, err)
	}
	if eng.RecoveryError() != nil {
		s.tm.corruptResets.Inc()
	}
	t := &tenant{
		id:      id,
		shardID: sh.id,
		srv:     s,
		quota:   newBucket(s.cfg.QuotaRate, s.cfg.QuotaBurst, s.now),
		engCfg:  cfg,
		eng:     eng,
		done:    make(chan struct{}),
	}
	sh.tenants[id] = t
	s.mu.Lock()
	s.tenantN++
	s.mu.Unlock()
	s.tm.tenants.Add(1)
	go t.supervise(s.ctx)
	// Handshake: don't hand the tenant out until its serve loop admits
	// pushes, or the first ingest would race the loop's startup. A killed
	// server (ctx done) skips the wait; pushes then fail typed.
	_ = eng.WaitServing(s.ctx)
	return t, nil
}

// TenantStats returns one tenant's snapshot, materializing it from disk if
// it has durable state but no live engine yet.
func (s *Server) TenantStats(id string) (TenantStats, error) {
	t, err := s.tenant(id, false)
	if err != nil {
		return TenantStats{}, err
	}
	return t.stats(), nil
}

// allTenants snapshots every live tenant, ordered by id.
func (s *Server) allTenants() []*tenant {
	var out []*tenant
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, t := range sh.tenants {
			out = append(out, t)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Stats returns the fleet snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Tenants:       s.tenantN,
		Draining:      s.draining,
		Accepted:      s.accepted.Load(),
		Skipped:       s.skipped.Load(),
		Shed:          s.shed.Load(),
		QuotaRejected: s.quotaRejected.Load(),
	}
	s.mu.Unlock()
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, sh.stats())
	}
	return st
}

// Shutdown drains the fleet gracefully: admission stops (ErrDraining /
// 503), every tenant's producer-side input closes, every admitted line is
// processed, and every tenant writes its closing checkpoint. Returns the
// first tenant's terminal error, or ctx's error if the deadline expires
// before the fleet drains. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	tenants := s.allTenants()
	for _, t := range tenants {
		t.stop()
	}
	var firstErr error
	for _, t := range tenants {
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
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.kill()
	for _, t := range s.allTenants() {
		<-t.done
	}
}
