// Command logstreamd runs the crash-safe streaming ingestion engine over a
// log file or a generated dataset, checkpointing its state so a killed
// process resumes where it durably left off.
//
// Tail a file with checkpoints every 5000 lines:
//
//	logstreamd -in app.log -checkpoint-dir /var/lib/logstream
//
// Replay a generated dataset and print the canonical digest (the quantity
// the kill-and-recover tests compare):
//
//	logstreamd -dataset Zookeeper -lines 20000 -checkpoint-dir ck -digest
//
// Simulate a crash at an exact stream position, then resume:
//
//	logstreamd -dataset HDFS -lines 30000 -checkpoint-dir ck -kill-after-lines 12345
//	logstreamd -dataset HDFS -lines 30000 -checkpoint-dir ck -digest
//
// The first invocation exits with code 3 (simulated crash, no final
// checkpoint); the second restores the newest trustworthy checkpoint and
// finishes the stream. SIGINT is a graceful shutdown: the engine stops and
// writes a final checkpoint before exiting.
//
// Fault injection: -torn-checkpoint-at N tears the Nth checkpoint save
// after -torn-checkpoint-limit bytes, modelling a write cut short mid-save —
// the save fails, and a resumed run detects the torn delta tail and recovers
// from the save before it.
//
// Network mode: -listen promotes the daemon to the multi-tenant ingestion
// server. Tenants POST newline-delimited lines and each gets its own engine,
// quota, and checkpoint directory under -checkpoint-dir:
//
//	logstreamd -listen :8080 -checkpoint-dir /var/lib/logstream -wal
//	curl -s --data-binary @app.log 'http://localhost:8080/v1/ingest?tenant=web'
//	curl -s http://localhost:8080/v1/tenants/web/stats
//
// SIGINT/SIGTERM drain gracefully in both modes: admitted lines are
// processed and every tenant's closing checkpoint is written before exit.
// A killed process (SIGKILL, power cut) instead resumes from the newest
// trustworthy checkpoints, and clients replay their streams — already-
// processed lines are skipped, so replay is idempotent.
//
// Both modes build their engines from the same flags. A flag that cannot
// take effect in the chosen mode (-wal without -listen, -digest with it) is
// a usage error, exit 2, not silently ignored.
package main

import (
	"bytes"
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"logparse"
	"logparse/internal/cli"
	"logparse/internal/faultinject"
	"logparse/internal/seglog"
	"logparse/internal/server"
	"logparse/internal/stream"
)

const crashExitCode = 3

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "logstreamd:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// flagNeeds lists the flags that take effect only beside another flag
// ("listen") or only without one ("!listen").
var flagNeeds = map[string]string{
	"in": "!listen", "dataset": "!listen", "lines": "dataset", "digest": "!listen", "stats": "!listen",
	"kill-after-lines": "!listen", "torn-checkpoint-at": "!listen", "torn-checkpoint-limit": "torn-checkpoint-at",
	"linger": "!listen", "listen-addr-file": "listen",
	"quota-rate": "listen", "quota-burst": "listen", "max-body": "listen",
	"request-timeout": "listen", "drain-timeout": "listen",
	"wal": "listen", "wal-sync": "wal", "wal-segment-bytes": "wal",
	"retrainer": "!online", "support": "!online", "retrain-batch": "!online", "max-unmatched": "!online",
	"events-block-bytes": "events", "debug-addr-file": "debug-addr",
}

// choiceVar declares a flag that takes one of the named values; any other is
// a usage error in either mode.
func choiceVar[T any](dst *T, name, usage string, values map[string]T) {
	flag.Func(name, usage, func(v string) error {
		val, ok := values[v]
		if !ok {
			var names []string
			for name := range values {
				names = append(names, name)
			}
			sort.Strings(names)
			return fmt.Errorf("want one of %s", strings.Join(names, ", "))
		}
		*dst = val
		return nil
	})
}

func run() (int, error) {
	// tmpl is the engine configuration both modes start from; srv is what
	// -listen mode wraps around it.
	var (
		tmpl stream.Config
		srv  server.Config
	)
	var (
		in      = flag.String("in", "", "log file to ingest (annotated or raw lines)")
		dataset = flag.String("dataset", "", "generate this dataset instead of reading -in (BGL, HPC, Proxifier, HDFS, Zookeeper, Hadoop, Spark, Thunderbird)")
		lines   = flag.Int("lines", 20000, "dataset size when -dataset is set")
		seed    = flag.Int64("seed", 1, "dataset generation seed")

		ckptDir = flag.String("checkpoint-dir", "", "checkpoint directory (required); with -listen the root tenant T checkpoints under, as <dir>/tenants/T")

		primary = flag.String("retrainer", "", "primary retrain algorithm ahead of the SLCT tier (SLCT, IPLoM, LKE, LogSig; empty = SLCT only)")
		support = flag.Int("support", 0, "SLCT support threshold for retraining (0 = fractional default)")
		online  = flag.String("online", "", "online-parser mode: learn per line with this algorithm (Drain or Spell) instead of the match/retrain cycle; exclusive with -retrainer and its knobs")

		eventsDir = flag.String("events", "", "record per-line parse decisions into this event-store directory (with -listen: root, tenant T under <root>/tenants/T); query with logquery or GET /v1/query")

		killAfter = flag.Int64("kill-after-lines", 0, "simulate a crash (exit 3, no checkpoint) after processing this source line")
		tornAt    = flag.Int("torn-checkpoint-at", 0, "tear the Nth checkpoint save (fault injection; 0 = never)")
		tornLimit = flag.Int64("torn-checkpoint-limit", 50, "bytes that survive the torn checkpoint save")

		digest    = flag.Bool("digest", false, "print the canonical digest of the final template set and counts")
		showStats = flag.Bool("stats", true, "print the stats summary on exit")

		listen         = flag.String("listen", "", "serve the multi-tenant ingest API on this address (e.g. :8080) instead of reading -in/-dataset")
		listenAddrFile = flag.String("listen-addr-file", "", "write the bound listen address to this file (useful with -listen :0)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline: drain rings + checkpoint every tenant (needs -listen)")

		debugAddr     = flag.String("debug-addr", "", "serve /debug/vars (the engine's stats and metrics) and /debug/pprof on this address (e.g. :6060; empty = off)")
		debugAddrFile = flag.String("debug-addr-file", "", "write the bound debug address to this file (useful with -debug-addr :0)")
		linger        = flag.Bool("linger", false, "after the source drains, keep the debug server running until SIGINT")
	)
	flag.IntVar(&tmpl.CheckpointEvery, "checkpoint-every", 5000, "checkpoint after this many processed lines (<0 disables periodic checkpoints)")
	flag.IntVar(&tmpl.RingCapacity, "ring", 1024, "admission ring capacity (memory bound on in-flight lines)")
	choiceVar(&tmpl.Policy, "policy", "admission policy when the ring is full: backpressure (default) or shed",
		map[string]stream.AdmissionPolicy{"backpressure": stream.Backpressure, "shed": stream.LoadShed})
	flag.IntVar(&tmpl.RetrainBatch, "retrain-batch", 256, "unmatched lines buffered before retraining")
	flag.IntVar(&tmpl.MaxUnmatched, "max-unmatched", 0, "unmatched-buffer cap (default 4x retrain batch)")
	flag.IntVar(&tmpl.EventStoreBlockBytes, "events-block-bytes", 0, "event-store target block size in raw bytes, one to two per event (0 = default 64 KiB); smaller blocks skip more precisely, larger compress better")
	flag.Float64Var(&srv.QuotaRate, "quota-rate", 0, "per-tenant admission quota in lines/sec (0 = unlimited; needs -listen)")
	flag.Float64Var(&srv.QuotaBurst, "quota-burst", 0, "per-tenant quota burst in lines (default one second's worth; needs -listen)")
	flag.Int64Var(&srv.MaxBodyBytes, "max-body", 1<<20, "ingest request body cap in bytes (needs -listen)")
	flag.DurationVar(&srv.RequestTimeout, "request-timeout", 30*time.Second, "per-request deadline (needs -listen)")
	flag.BoolVar(&srv.WAL, "wal", false, "per-tenant write-ahead log: acknowledged batches survive kill -9 without client replay (needs -listen)")
	choiceVar(&tmpl.WALSync, "wal-sync", "WAL durability policy: batch (default; one fsync per acknowledged batch) or none (flush only; survives process kill, not power loss)",
		map[string]stream.WALSyncPolicy{"batch": stream.WALSyncBatch, "none": stream.WALSyncNone})
	flag.Int64Var(&tmpl.WALSegmentBytes, "wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
	flag.Parse()

	if err := cli.CheckFlagNeeds(flagNeeds); err != nil {
		return 2, err
	}
	if *ckptDir == "" {
		return 2, errors.New("-checkpoint-dir is required")
	}
	if *listen == "" && (*in == "") == (*dataset == "") {
		return 2, errors.New("exactly one of -in, -dataset or -listen is required")
	}

	// learner builds one engine's learner — every tenant its own: the
	// -online parser, or else the retrain chain.
	learner := func() (op stream.OnlineParser, rt stream.Retrainer, err error) {
		if *online != "" {
			op, err = logparse.NewOnlineParser(*online, logparse.Options{})
		} else {
			rt, err = logparse.NewStreamRetrainer(*primary,
				logparse.Options{Support: *support, SupportFrac: 0.005, NumGroups: 40, Seed: *seed},
				logparse.RobustPolicy{})
		}
		return op, rt, err
	}
	op, rt, err := learner() // the file engine's; also refuses a bad -online or -retrainer now, not at a tenant's first contact
	if err != nil {
		return 2, err
	}

	var tel *logparse.Telemetry
	if *debugAddr != "" {
		tel = logparse.NewTelemetry()
		if err := serveDebug(*debugAddr, *debugAddrFile, tel); err != nil {
			return 1, err
		}
	}

	if *listen != "" {
		if op != nil {
			srv.NewOnline = func(string) (stream.OnlineParser, error) { op, _, err := learner(); return op, err }
		} else {
			srv.NewRetrainer = func(string) (stream.Retrainer, error) { _, rt, err := learner(); return rt, err }
		}
		srv.CheckpointRoot, srv.EventsRoot, srv.Stream, srv.Telemetry = *ckptDir, *eventsDir, tmpl, tel
		return runServer(srv, *listen, *listenAddrFile, *drainTimeout)
	}

	cfg := tmpl
	cfg.CheckpointDir, cfg.EventStoreDir, cfg.Telemetry = *ckptDir, *eventsDir, tel
	cfg.Online, cfg.Retrainer = op, rt
	if cfg.Open, err = buildSource(*in, *dataset, *lines, *seed); err != nil {
		return 2, err
	}
	if *tornAt > 0 {
		// The Nth save's writes stop after -torn-checkpoint-limit bytes,
		// whichever file it is writing: the save fails and leaves a torn
		// delta tail (or a torn, unpublished base) behind.
		saves := 0
		cfg.CheckpointSeam = seglog.Seam{
			Hook: func(point string) error {
				if point == "save" {
					saves++
				}
				return nil
			},
			Wrap: func(f *os.File) seglog.File {
				c := faultinject.NewWALCrashFile(f)
				c.TearAfter = *tornLimit
				c.Armed = func() bool { return saves == *tornAt }
				return c
			},
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crashed := false
	if *killAfter > 0 {
		cfg.AfterLine = func(lineNo int64) {
			if lineNo == *killAfter {
				crashed = true
				cancel()
			}
		}
	}

	eng, err := stream.New(cfg)
	if err != nil {
		return 1, err
	}
	if tel != nil {
		// The engine's own account, cumulative across resumes — the numbers
		// the stats lines print on exit. (Listen mode serves them per tenant
		// on /v1/tenants/{id}/stats.)
		expvar.Publish("stream", expvar.Func(func() any { return eng.Stats() }))
	}
	if st := eng.Stats(); st.RecoveredFrom != "" {
		fmt.Fprintf(os.Stderr, "logstreamd: restored %s checkpoint base + %d deltas (generation %d, offset %d)\n",
			st.RecoveredFrom, st.DeltasSinceBase, st.CheckpointGen, st.Offset)
	}

	// SIGINT/SIGTERM request a graceful stop: the producer stops pulling,
	// every admitted line drains through the matcher, and only then is the
	// closing checkpoint written — no admitted line is lost to a shutdown.
	// A second signal hard-cancels (the crash model, no checkpoint).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	interrupted := false
	sigDone := make(chan struct{})
	go func() {
		if _, ok := <-sigCh; ok {
			interrupted = true
			eng.Stop()
			close(sigDone)
			if _, ok := <-sigCh; ok {
				cancel()
			}
		}
	}()

	runStart := time.Now()
	runErr := eng.Run(ctx)
	runElapsed := time.Since(runStart)
	switch {
	case runErr == nil && interrupted:
		fmt.Fprintf(os.Stderr, "logstreamd: interrupted; ring drained and state checkpointed at offset %d\n", eng.Stats().Offset)
	case runErr == nil:
		// Clean end of source; final checkpoint already written.
	case errors.Is(runErr, context.Canceled) && crashed:
		fmt.Fprintf(os.Stderr, "logstreamd: simulated crash after line %d (no checkpoint)\n", *killAfter)
		return crashExitCode, nil
	case errors.Is(runErr, context.Canceled) && interrupted:
		fmt.Fprintln(os.Stderr, "logstreamd: second signal; hard stop without checkpoint")
		return 1, runErr
	default:
		return 1, runErr
	}

	if *showStats {
		st := eng.Stats()
		printStats(os.Stderr, st)
		if secs := runElapsed.Seconds(); secs > 0 && st.Processed > 0 {
			fmt.Fprintf(os.Stderr, "logstreamd: throughput %.0f lines/sec (%d lines in %s)\n",
				float64(st.Processed)/secs, st.Processed, runElapsed.Round(time.Millisecond))
		}
	}
	if *digest {
		fmt.Println(eng.Digest())
	}
	if *linger && !interrupted && *debugAddr != "" {
		fmt.Fprintln(os.Stderr, "logstreamd: source drained; debug server still serving (SIGINT to exit)")
		<-sigDone
	}
	return 0, nil
}

// The front door's timeouts, so that no client holds a connection and
// its goroutine indefinitely: one that trickles its headers is cut off at
// readHeaderTimeout, one that trickles its body at readTimeout. idleTimeout
// stays above a client transport's idle timeout (a minute in the
// benchmark's, 90 s in Go's default), so the server never closes a
// kept-alive connection a client is about to reuse.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the ingest service's front door to h, whose requests
// run under requestTimeout (server.Config.RequestTimeout). net/http
// cancels a request's context once the read timeout has passed since its
// headers began, so that timeout outlasts the header read plus
// requestTimeout, and a negative requestTimeout, which disables the
// deadline, leaves it unset.
func newHTTPServer(h http.Handler, requestTimeout time.Duration) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	if requestTimeout >= 0 {
		srv.ReadTimeout = max(readTimeout, readHeaderTimeout+requestTimeout)
	}
	return srv
}

// runServer runs the multi-tenant ingest service until SIGINT or SIGTERM,
// then drains: admission stops, every tenant's ring empties, and every
// tenant's closing checkpoint is written before exit.
func runServer(cfg server.Config, listen, addrFile string, drainTimeout time.Duration) (int, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return 1, err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return 1, fmt.Errorf("listen: %w", err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return 1, err
		}
	}
	httpSrv := newHTTPServer(srv.Handler(), cfg.RequestTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "logstreamd: multi-tenant ingest on http://%s/v1/ingest\n", ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "logstreamd: %s; draining %d tenants (deadline %s)\n",
			sig, srv.Stats().Tenants, drainTimeout)
	case err := <-serveErr:
		return 1, fmt.Errorf("http server: %w", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the engines first so in-flight ingest requests get their typed
	// 503s rather than hard-closed connections, then stop the HTTP server.
	drainErr := srv.Shutdown(drainCtx)
	_ = httpSrv.Shutdown(drainCtx)
	if drainErr != nil {
		return 1, fmt.Errorf("drain: %w", drainErr)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "logstreamd: drained; %d tenants checkpointed (accepted=%d skipped=%d shed=%d quota-rejected=%d)\n",
		st.Tenants, st.Accepted, st.Skipped, st.Shed, st.QuotaRejected)
	return 0, nil
}

// serveDebug binds addr, publishes the telemetry handle as the expvar
// "logstream" variable and serves /debug/vars plus /debug/pprof on the
// default mux in the background. When addrFile is set, the bound address is
// written there, so scripts can use "-debug-addr :0" and discover the port.
func serveDebug(addr, addrFile string, tel *logparse.Telemetry) error {
	expvar.Publish("logstream", tel.Var())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server: %w", err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "logstreamd: debug server on http://%s/debug/vars\n", ln.Addr())
	go func() {
		// The server lives for the process: ignore the shutdown error.
		_ = http.Serve(ln, nil)
	}()
	return nil
}

// buildSource returns a re-openable reader over the input file or an
// in-memory generated dataset.
func buildSource(in, dataset string, lines int, seed int64) (func() (io.ReadCloser, error), error) {
	if in != "" {
		return func() (io.ReadCloser, error) { return os.Open(in) }, nil
	}
	cat, err := logparse.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := logparse.WriteMessages(&buf, cat.Generate(seed, lines)); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	return func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }, nil
}

func printStats(w io.Writer, s stream.Stats) {
	fmt.Fprintf(w, "lines-in=%d processed=%d matched=%d unparsed=%d empty=%d shed=%d oversized=%d\n",
		s.LinesIn, s.Processed, s.Matched, s.Unparsed, s.Empty, s.Shed, s.Oversized)
	fmt.Fprintf(w, "templates=%d retrains=%d retrain-failures=%d breaker=%s unmatched-buffered=%d unmatched-dropped=%d\n",
		s.Templates, s.Retrains, s.RetrainFailures, s.Breaker, s.UnmatchedBuffered, s.UnmatchedDropped)
	fmt.Fprintf(w, "offset=%d checkpoints=%d checkpoint-errors=%d checkpoint-gen=%d deltas-since-base=%d ring-high-water=%d recovered-from=%q\n",
		s.Offset, s.Checkpoints, s.CheckpointErrors, s.CheckpointGen, s.DeltasSinceBase, s.RingHighWater, s.RecoveredFrom)
	if s.EventStoreEnabled {
		fmt.Fprintf(w, "events=%d event-segments=%d event-blocks=%d event-torn-tails=%d event-error=%q\n",
			s.EventsAppended, s.EventStoreSegments, s.EventStoreBlocks, s.EventStoreTornTails, s.EventStoreError)
	}
}
