package logparse

import "logparse/internal/telemetry"

// Telemetry is an optional, self-contained observability handle: a
// race-safe metrics registry (counters, gauges, fixed-bucket histograms)
// plus lightweight hierarchical stage spans. One handle can be shared by
// any number of parsers (Options.Telemetry), robust chains
// (RobustPolicy.Telemetry) and stream engines (StreamConfig.Telemetry);
// everything they record lands in the same registry. A stream engine
// records only what its StreamStats does not already count — read line,
// retrain and checkpoint counts from Stats.
//
// A nil *Telemetry is fully valid and means "off": every method no-ops
// without allocating, so instrumented code pays nothing when telemetry is
// disabled. Handles are safe for concurrent use.
//
// Export paths: Snapshot() for a point-in-time copy, Report(tool) for the
// structured run report cmd/logparse and cmd/logeval emit with -report,
// and Var() for an expvar-compatible value served on /debug/vars (see
// cmd/logstreamd -debug-addr, which serves the engine's Stats beside it).
type Telemetry = telemetry.Handle

// TelemetrySnapshot is a point-in-time copy of a handle's metrics.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryReport is the structured run report: cumulative stage timings,
// recent span trees and a metric snapshot.
type TelemetryReport = telemetry.Report

// NewTelemetry creates an enabled telemetry handle.
func NewTelemetry() *Telemetry { return telemetry.New() }
