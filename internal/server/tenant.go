package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"logparse/internal/eventstore"
	"logparse/internal/stream"
)

// tenant is one tenant's full ingestion stack — quota, engine, supervisor —
// and the fault domain: a panic in its consumer is absorbed here, the engine
// rebuilt from its checkpoint, while every other tenant keeps serving.
type tenant struct {
	id  string
	srv *Server

	// ready is closed when Server.build has finished with the reservation:
	// either buildErr is set and the tenant is out of the map again, or
	// quota, engCfg and eng are and the supervisor runs. Before that nothing
	// below may be touched but mu and the counters under it (wait, built).
	ready    chan struct{}
	buildErr error
	quota    *bucket
	engCfg   stream.Config // the recipe for rebuilding after a panic

	mu            sync.Mutex
	eng           *stream.Engine
	err           error // terminal serve error (nil while healthy)
	panics        int64
	restarts      int64
	walFailures   int64
	storeFailures int64
	quotaRejected int64
	stopping      bool

	done chan struct{} // closed when the supervisor exits

	// rd is the event-store reader kept between queries, extended by each
	// (eventstore.Reader.Refresh) instead of re-scanning the store. A store
	// only grows while one engine incarnation writes it — what cuts it back,
	// Open's repair and AlignTo, runs inside stream.New — so rd belongs to
	// the incarnation rdEng and dies with it. rdMu serialises refreshes, not
	// queries: those run on the immutable snapshot they were handed.
	rdMu  sync.Mutex
	rd    *eventstore.Reader
	rdEng *stream.Engine
}

// reader returns a snapshot of a tenant's event store that covers every
// block finalized so far: the live tenant's kept reader, refreshed, or — for
// a tenant that exists only on disk or is still recovering, with no
// incarnation to key one to — a cold scan. cold forces a fresh scan after a
// query found the kept reader stale. A query that races a restart may still be answered from the
// outgoing incarnation's view; whatever it leaves in rd is keyed to that
// incarnation and never used again.
func (s *Server) reader(id, dir string, cold bool) (rd *eventstore.Reader, info eventstore.ReadInfo, err error) {
	s.mu.Lock()
	t := s.tenants[id]
	s.mu.Unlock()
	opts := eventstore.ReaderOptions{Telemetry: s.cfg.Telemetry}
	if t == nil || !t.built() {
		return eventstore.OpenReader(dir, opts)
	}
	t.mu.Lock()
	eng := t.eng
	t.mu.Unlock()
	t.rdMu.Lock()
	defer t.rdMu.Unlock()
	if t.rd != nil && t.rdEng == eng && !cold {
		rd, info, err = t.rd.Refresh() // nil when the store was cut back
	}
	if rd == nil {
		rd, info, err = eventstore.OpenReader(dir, opts)
	}
	t.rd, t.rdEng = rd, eng
	return rd, info, err
}

// maxDurableRestarts caps how many failures of one durable layer (the
// write-ahead log, the event store — counted separately) a tenant may
// absorb over its lifetime before the supervisor declares it terminal: a
// log or store that keeps failing after repair-and-rebuild (disk full,
// dead device) is not going to heal by reopening, and each restart re-runs
// a full replay.
const maxDurableRestarts = 8

// supervise runs the tenant's serve loop, absorbing panics and
// durable-layer failures by rebuilding the engine from its newest
// trustworthy checkpoint (reopening the WAL or the event store repairs
// it, and the new incarnation replays the surviving records). It exits on graceful
// stop (clean drain + closing checkpoint), on ctx cancellation (the crash
// model), or on a terminal error (recorded in t.err).
func (t *tenant) supervise(ctx context.Context) {
	defer close(t.done)
	for {
		t.mu.Lock()
		eng := t.eng
		t.mu.Unlock()

		pv, err := t.serveOnce(ctx, eng)
		var cause string
		var durable *stream.DurableError
		switch {
		case pv != nil:
			// A panic unwound the consumer: everything in that
			// incarnation's ring is gone (clients replay it), but the
			// checkpoints survive.
			t.mu.Lock()
			t.panics++
			t.mu.Unlock()
			cause = fmt.Sprintf("panic (%v)", pv)
		case errors.As(err, &durable):
			// The WAL or the event store failed mid-write. Either way the
			// batch that observed it was never acknowledged and a rebuild
			// reopens — and repairs — the layer: after a WAL failure
			// progress is checkpointed and the surviving records replay;
			// after a store failure the engine refused to checkpoint over
			// the gap, so the store is realigned to the restored
			// checkpoint and replay re-emits exactly the dropped events.
			failures := &t.walFailures
			if durable.Layer == stream.LayerEventStore {
				failures = &t.storeFailures
			}
			t.mu.Lock()
			*failures++
			n := *failures
			if n > maxDurableRestarts {
				t.err = fmt.Errorf("%s failed %d times; tenant is terminal: %w", durable.Layer, n, durable)
				t.mu.Unlock()
				return
			}
			t.mu.Unlock()
			cause = string(durable.Layer) + " failure"
		default:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.mu.Lock()
				t.err = err
				t.mu.Unlock()
			}
			return
		}

		t.mu.Lock()
		stopping := t.stopping
		t.mu.Unlock()
		if ctx.Err() != nil || stopping {
			return
		}
		next, nerr := stream.New(t.engCfg)
		if nerr != nil {
			t.mu.Lock()
			t.err = fmt.Errorf("restart after %s: %w", cause, nerr)
			t.mu.Unlock()
			return
		}
		t.mu.Lock()
		t.eng = next
		t.restarts++
		t.mu.Unlock()
	}
}

// wait blocks until the tenant's construction has finished, or ctx ends, and
// returns how it ended.
func (t *tenant) wait(ctx context.Context) error {
	select {
	case <-t.ready:
		return t.buildErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// built reports, without waiting, whether the tenant has an engine.
func (t *tenant) built() bool {
	select {
	case <-t.ready:
		return t.buildErr == nil
	default:
		return false
	}
}

// serveOnce runs one engine incarnation, converting a panic anywhere under
// Serve into a returned value instead of a process crash.
func (t *tenant) serveOnce(ctx context.Context, eng *stream.Engine) (pv any, err error) {
	defer func() {
		if r := recover(); r != nil {
			pv = r
		}
	}()
	return nil, eng.Serve(ctx)
}

// pushBatch forwards a byte batch to the tenant's current engine
// incarnation.
func (t *tenant) pushBatch(ctx context.Context, lines [][]byte) (stream.PushResult, error) {
	t.mu.Lock()
	eng := t.eng
	terr := t.err
	t.mu.Unlock()
	if terr != nil {
		return stream.PushResult{}, terr
	}
	return eng.PushBatch(ctx, lines)
}

// stop closes the tenant's input for a graceful drain.
func (t *tenant) stop() {
	t.mu.Lock()
	t.stopping = true
	eng := t.eng
	t.mu.Unlock()
	eng.Stop()
}

// stats snapshots the tenant.
func (t *tenant) stats() TenantStats {
	t.mu.Lock()
	eng := t.eng
	st := TenantStats{
		Tenant:             t.id,
		Panics:             t.panics,
		Restarts:           t.restarts,
		WALFailures:        t.walFailures,
		EventStoreFailures: t.storeFailures,
		QuotaRejected:      t.quotaRejected,
	}
	if t.err != nil {
		st.Error = t.err.Error()
	}
	t.mu.Unlock()
	st.Stream = eng.Stats()
	st.Digest = eng.Digest()
	return st
}

// TenantStats is one tenant's externally visible snapshot.
type TenantStats struct {
	// Tenant is the tenant id.
	Tenant string `json:"tenant"`
	// Stream is the tenant engine's full health snapshot.
	Stream stream.Stats `json:"stream"`
	// Digest is the canonical digest of the tenant's parse outcome — the
	// quantity the kill-and-recover equivalence compares.
	Digest string `json:"digest"`
	// Panics and Restarts count consumer panics absorbed and engine
	// incarnations rebuilt from checkpoints; WALFailures and
	// EventStoreFailures count the restarts caused by write-ahead-log and
	// event-store failures (each capped at its lifetime maximum before
	// the tenant goes terminal).
	Panics             int64 `json:"panics"`
	Restarts           int64 `json:"restarts"`
	WALFailures        int64 `json:"wal_failures"`
	EventStoreFailures int64 `json:"eventstore_failures"`
	// QuotaRejected counts lines refused by the admission quota.
	QuotaRejected int64 `json:"quota_rejected"`
	// Error is the tenant's terminal serve error, empty while healthy.
	Error string `json:"error,omitempty"`
}

// Stats is the fleet snapshot. Tenants counts the tenant map, those still
// recovering included; QuotaRejected and the four restart counters are
// summed over it.
type Stats struct {
	Tenants            int   `json:"tenants"`
	Draining           bool  `json:"draining"`
	Accepted           int64 `json:"accepted"`
	Skipped            int64 `json:"skipped"`
	Shed               int64 `json:"shed"`
	QuotaRejected      int64 `json:"quota_rejected"`
	Panics             int64 `json:"panics"`
	Restarts           int64 `json:"restarts"`
	WALFailures        int64 `json:"wal_failures"`
	EventStoreFailures int64 `json:"eventstore_failures"`
}
