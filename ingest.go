package logparse

// Multi-tenant ingestion service (the network layer over the streaming
// engine). The follow-up evaluations stress that production parsers run
// continuously over heterogeneous multi-source traffic; the IngestServer
// makes every tenant its own fault domain — a supervised StreamEngine
// (admission ring, retrain breaker, checkpoint generations, quota) — and
// guarantees that one tenant's flood, panic, rotted checkpoint or slow
// recovery degrades that tenant only. See DESIGN.md
// "Multi-tenant server & isolation semantics".

import "logparse/internal/server"

type (
	// IngestServer is the multi-tenant ingestion service.
	IngestServer = server.Server
	// IngestConfig configures an IngestServer.
	IngestConfig = server.Config
	// IngestTenantStats is one tenant's externally visible snapshot.
	IngestTenantStats = server.TenantStats
	// IngestStats is the fleet snapshot.
	IngestStats = server.Stats
	// IngestQuotaError reports a batch rejected by a tenant's admission
	// quota (HTTP 429, or 413 when the batch can never fit the bucket).
	IngestQuotaError = server.QuotaError
	// IngestTenantIDError reports a malformed tenant id (HTTP 400).
	IngestTenantIDError = server.TenantIDError
)

// Typed ingest failures shared with the HTTP layer.
var (
	// ErrIngestDraining rejects ingest during graceful shutdown (503).
	ErrIngestDraining = server.ErrDraining
	// ErrIngestTooManyTenants rejects a new tenant beyond the cap (503).
	ErrIngestTooManyTenants = server.ErrTooManyTenants
	// ErrIngestUnknownTenant reports a stats query for a tenant with no
	// live engine and no on-disk state (404).
	ErrIngestUnknownTenant = server.ErrUnknownTenant
)

// NewIngestServer builds the multi-tenant service. Tenants materialize
// lazily on first ingest, each restoring its own newest trustworthy
// checkpoint under <CheckpointRoot>/tenants/<id>/:
//
//	srv, _ := logparse.NewIngestServer(logparse.IngestConfig{
//		CheckpointRoot: "/var/lib/logstream",
//		QuotaRate:      10000, // lines/sec per tenant
//	})
//	http.ListenAndServe(":8080", srv.Handler())
//	// ... on SIGTERM:
//	err := srv.Shutdown(ctx) // drain rings + checkpoint every tenant
func NewIngestServer(cfg IngestConfig) (*IngestServer, error) {
	return server.New(cfg)
}
