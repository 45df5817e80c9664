package main

// metricDef names one reported number. The lists below are the contract
// with BENCHMARK.json; smoke_test.go holds them equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics is what a user of the service would see. Every workload
// reports every one of them (the ordinary run, tracing off).
var endToEndMetrics = []metricDef{
	{"lines_per_s", "1/s"},
	{"server_cpu_s_per_mline", "s"},
	{"ack_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"store_bytes_per_line", "B"},
	{"setup_s", "s"},
}

// perLayerMetrics explain the end-to-end numbers. A name's prefix is the
// package it measures; see README.md for which end-to-end metric each one
// should move. Those marked (P) are read from outside the server process
// during an ordinary run; the rest come from the in-process ladder.
var perLayerMetrics = []metricDef{
	{"gen.ns_per_line", "ns"},
	{"core.tokenize_ns_per_line", "ns"},
	{"match.ns_per_line", "ns"},
	{"match.templates", "count"},
	{"drain.learn_ns_per_line", "ns"},
	{"drain.templates", "count"},
	{"drain.snapshot_ms", "ms"},
	{"spell.learn_ns_per_line", "ns"},
	{"spell.templates", "count"},
	{"spell.snapshot_ms", "ms"},
	{"wal.append_ns_per_line", "ns"},
	{"wal.commit_us_per_batch", "us"},
	{"wal.bytes_per_line", "B"},
	{"wal.fsyncs_per_kline", "count"},
	{"wal.segments", "count"},
	{"eventstore.append_ns_per_line", "ns"},
	{"eventstore.finalize_us_per_block", "us"},
	{"eventstore.bytes_per_event", "B"},
	{"eventstore.blocks", "count"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.saves", "count"},
	{"stream.pass_ns_per_line", "ns"},
	{"stream.self_ns_per_line", "ns"},
	{"stream.ack_us_per_batch", "us"},
	{"stream.allocs_per_line", "count"},
	{"stream.alloc_bytes_per_line", "B"},
	{"server.pass_ns_per_line", "ns"},
	{"server.self_ns_per_line", "ns"},
	{"http.pass_ns_per_line", "ns"},
	{"http.self_ns_per_line", "ns"},
	{"http.alloc_bytes_per_line", "B"},
	{"eventstore.open_reader_ms", "ms"},
	{"eventstore.q_count_ms", "ms"},
	{"eventstore.q_top_ms", "ms"},
	{"eventstore.q_list_ms", "ms"},
	{"eventstore.q_range_ms", "ms"},
	{"eventstore.blocks_skipped_share", "ratio"},
	{"eventstore.blocks_decompressed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"ladder.closure", "ratio"},
	// (P)
	{"http.ack_p50_ms", "ms"},
	{"http.ack_tail_ms", "ms"},
	{"http.ack_tail_pct", "%"},
	{"http.ack_samples", "count"},
	{"query.round_tail_ms", "ms"},
	{"query.round_tail_pct", "%"},
	{"query.round_samples", "count"},
	{"server.templates", "count"},
	{"server.checkpoints", "count"},
	{"server.retrains", "count"},
	{"server.ring_high_water", "count"},
	{"disk.wal_bytes", "B"},
	{"disk.ckpt_bytes", "B"},
	{"disk.store_bytes", "B"},
	{"loadgen.late_tail_ms", "ms"},
	{"loadgen.cpu_s", "s"},
	{"machine.calib_ms", "ms"},
}
