package server

import "logparse/internal/telemetry"

// serverTelemetry holds the fleet-level instruments, pre-resolved so the
// ingest path never does a registry lookup. Every field is nil when
// Config.Telemetry is nil; instrument methods no-op on nil receivers, so
// the disabled path costs nothing. Line and restart counts are not here:
// they are Stats and TenantStats fields, served by GET /v1/stats and
// /v1/tenants/{id}/stats. Per-tenant engine telemetry is deliberately not
// wired — see Config.Telemetry.
type serverTelemetry struct {
	requests      *telemetry.Counter // server.requests — ingest requests received
	corruptResets *telemetry.Counter // server.engine.corrupt_resets — tenants started empty over rotted state
}

func newServerTelemetry(h *telemetry.Handle) serverTelemetry {
	return serverTelemetry{
		requests:      h.Counter("server.requests"),
		corruptResets: h.Counter("server.engine.corrupt_resets"),
	}
}
