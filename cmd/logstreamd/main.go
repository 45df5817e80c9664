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
// Fault injection: -eof-after-lines truncates the source mid-stream (clean
// EOF; the engine checkpoints and a later run completes the job) and
// -torn-checkpoint-at N tears the Nth checkpoint save after
// -torn-checkpoint-limit bytes, modelling a write cut short mid-save — the
// save fails, and a resumed run detects the torn delta tail and recovers
// from the save before it.
//
// Network mode: -listen promotes the daemon to the sharded multi-tenant
// ingestion server. Tenants POST newline-delimited lines and each gets its
// own engine, quota, and checkpoint directory under -checkpoint-dir:
//
//	logstreamd -listen :8080 -checkpoint-dir /var/lib/logstream -shards 8
//	curl -s --data-binary @app.log 'http://localhost:8080/v1/ingest?tenant=web'
//	curl -s http://localhost:8080/v1/tenants/web/stats
//
// SIGINT/SIGTERM drain gracefully in both modes: admitted lines are
// processed and every tenant's closing checkpoint is written before exit.
// A killed process (SIGKILL, power cut) instead resumes from the newest
// trustworthy checkpoints, and clients replay their streams — already-
// processed lines are skipped, so replay is idempotent.
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
	"syscall"
	"time"

	"logparse"
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

func run() (int, error) {
	var (
		in      = flag.String("in", "", "log file to ingest (annotated or raw lines)")
		dataset = flag.String("dataset", "", "generate this dataset instead of reading -in (BGL, HPC, Proxifier, HDFS, Zookeeper, Hadoop, Spark, Thunderbird)")
		lines   = flag.Int("lines", 20000, "dataset size when -dataset is set")
		seed    = flag.Int64("seed", 1, "dataset generation seed")

		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory (required)")
		ckptEvery = flag.Int("checkpoint-every", 5000, "checkpoint after this many processed lines (<0 disables periodic checkpoints)")
		ring      = flag.Int("ring", 1024, "admission ring capacity (memory bound on in-flight lines)")
		policy    = flag.String("policy", "backpressure", "admission policy when the ring is full: backpressure or shed")

		retrainBatch = flag.Int("retrain-batch", 256, "unmatched lines buffered before retraining")
		maxUnmatched = flag.Int("max-unmatched", 0, "unmatched-buffer cap (default 4x retrain batch)")
		primary      = flag.String("retrainer", "", "primary retrain algorithm ahead of the SLCT-stream tier (SLCT, IPLoM, LKE, LogSig; empty = SLCT-stream only)")
		support      = flag.Int("support", 0, "SLCT support threshold for retraining (0 = fractional default)")
		online       = flag.String("online", "", "online-parser mode: learn per line with this algorithm (Drain or Spell) instead of the match/retrain cycle; exclusive with -retrainer")

		eventsDir   = flag.String("events", "", "record per-line parse decisions into this event-store directory (file mode) or root (-listen mode: tenant T under <root>/tenants/T); query with logquery or GET /v1/query")
		eventsBlock = flag.Int("events-block-bytes", 0, "event-store target block size in raw bytes, one to two per event (0 = default 64 KiB); smaller blocks skip more precisely, larger compress better")

		killAfter = flag.Int64("kill-after-lines", 0, "simulate a crash (exit 3, no checkpoint) after processing this source line")
		eofAfter  = flag.Int("eof-after-lines", 0, "inject a premature clean EOF after this many source lines")
		tornAt    = flag.Int("torn-checkpoint-at", 0, "tear the Nth checkpoint save (fault injection; 0 = never)")
		tornLimit = flag.Int64("torn-checkpoint-limit", 50, "bytes that survive the torn checkpoint save")

		digest    = flag.Bool("digest", false, "print the canonical digest of the final template set and counts")
		showStats = flag.Bool("stats", true, "print the stats summary on exit")

		listen         = flag.String("listen", "", "serve the multi-tenant ingest API on this address (e.g. :8080); replaces -in/-dataset")
		listenAddrFile = flag.String("listen-addr-file", "", "write the bound listen address to this file (useful with -listen :0)")
		shards         = flag.Int("shards", 4, "fault-isolation shards tenants are hashed across (-listen mode)")
		quotaRate      = flag.Float64("quota-rate", 0, "per-tenant admission quota in lines/sec (0 = unlimited; -listen mode)")
		quotaBurst     = flag.Float64("quota-burst", 0, "per-tenant quota burst in lines (default one second's worth; -listen mode)")
		maxBody        = flag.Int64("max-body", 1<<20, "ingest request body cap in bytes (-listen mode)")
		reqTimeout     = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (-listen mode)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline: drain rings + checkpoint every tenant (-listen mode)")
		walOn          = flag.Bool("wal", false, "per-tenant write-ahead log: acknowledged batches survive kill -9 without client replay (-listen mode)")
		walSync        = flag.String("wal-sync", "batch", "WAL durability policy: batch (one fsync per acknowledged batch) or none (flush only; survives process kill, not power loss)")
		walSegBytes    = flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")

		debugAddr     = flag.String("debug-addr", "", "serve /debug/vars (stream.* metrics) and /debug/pprof on this address (e.g. :6060; empty = off)")
		debugAddrFile = flag.String("debug-addr-file", "", "write the bound debug address to this file (useful with -debug-addr :0)")
		linger        = flag.Bool("linger", false, "after the source drains, keep the debug server running until SIGINT")
	)
	flag.Parse()

	if *ckptDir == "" {
		return 2, errors.New("-checkpoint-dir is required")
	}
	if *listen != "" {
		if *in != "" || *dataset != "" {
			return 2, errors.New("-listen is exclusive with -in/-dataset")
		}
		if *online != "" && *primary != "" {
			return 2, errors.New("-online is exclusive with -retrainer")
		}
		return runServer(serverOpts{
			listen: *listen, addrFile: *listenAddrFile, ckptRoot: *ckptDir,
			shards: *shards, quotaRate: *quotaRate, quotaBurst: *quotaBurst,
			maxBody: *maxBody, reqTimeout: *reqTimeout, drainTimeout: *drainTimeout,
			ring: *ring, ckptEvery: *ckptEvery, retrainBatch: *retrainBatch,
			maxUnmatched: *maxUnmatched, policy: *policy,
			primary: *primary, support: *support, seed: *seed, online: *online,
			wal: *walOn, walSync: *walSync, walSegBytes: *walSegBytes,
			eventsRoot: *eventsDir, eventsBlock: *eventsBlock,
			debugAddr: *debugAddr, debugAddrFile: *debugAddrFile,
		})
	}
	if (*in == "") == (*dataset == "") {
		return 2, errors.New("exactly one of -in or -dataset is required")
	}

	open, err := buildSource(*in, *dataset, *lines, *seed, *eofAfter)
	if err != nil {
		return 2, err
	}

	var pol stream.AdmissionPolicy
	switch *policy {
	case "backpressure":
		pol = stream.Backpressure
	case "shed":
		pol = stream.LoadShed
	default:
		return 2, fmt.Errorf("unknown -policy %q (want backpressure or shed)", *policy)
	}

	var retrainer stream.Retrainer
	var onlineParser stream.OnlineParser
	if *online != "" {
		if *primary != "" {
			return 2, errors.New("-online is exclusive with -retrainer")
		}
		onlineParser, err = logparse.NewOnlineParser(*online, logparse.Options{})
		if err != nil {
			return 2, err
		}
	} else {
		retrainer, err = logparse.NewStreamRetrainer(*primary,
			logparse.Options{Support: *support, SupportFrac: 0.005, NumGroups: 40, Seed: *seed},
			logparse.RobustPolicy{})
		if err != nil {
			return 2, err
		}
	}

	var tel *logparse.Telemetry
	if *debugAddr != "" {
		tel = logparse.NewTelemetry()
		if err := serveDebug(*debugAddr, *debugAddrFile, tel); err != nil {
			return 1, err
		}
	}

	cfg := stream.Config{
		Open:            open,
		CheckpointDir:   *ckptDir,
		RingCapacity:    *ring,
		Policy:          pol,
		CheckpointEvery: *ckptEvery,
		RetrainBatch:    *retrainBatch,
		MaxUnmatched:    *maxUnmatched,
		Retrainer:       retrainer,
		Online:          onlineParser,
		Telemetry:       tel,

		EventStoreDir:        *eventsDir,
		EventStoreBlockBytes: *eventsBlock,
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

// serverOpts carries the -listen mode flags into runServer.
type serverOpts struct {
	listen, addrFile, ckptRoot string

	shards       int
	quotaRate    float64
	quotaBurst   float64
	maxBody      int64
	reqTimeout   time.Duration
	drainTimeout time.Duration

	ring, ckptEvery, retrainBatch, maxUnmatched int
	policy, primary, online                     string
	support                                     int
	seed                                        int64

	wal         bool
	walSync     string
	walSegBytes int64

	eventsRoot  string
	eventsBlock int

	debugAddr, debugAddrFile string
}

// newRetrainerFactory builds the per-tenant retrainer factory, or nil when
// -online replaces the retrain cycle entirely.
func newRetrainerFactory(o serverOpts) func(tenant string) (stream.Retrainer, error) {
	if o.online != "" {
		return nil
	}
	return func(tenant string) (stream.Retrainer, error) {
		return logparse.NewStreamRetrainer(o.primary,
			logparse.Options{Support: o.support, SupportFrac: 0.005, NumGroups: 40, Seed: o.seed},
			logparse.RobustPolicy{})
	}
}

// newOnlineFactory builds the per-tenant online-learner factory for -online
// mode (each tenant engine gets its own learner instance), or nil in the
// default match/retrain mode.
func newOnlineFactory(o serverOpts) func(tenant string) (stream.OnlineParser, error) {
	if o.online == "" {
		return nil
	}
	return func(tenant string) (stream.OnlineParser, error) {
		return logparse.NewOnlineParser(o.online, logparse.Options{})
	}
}

// runServer runs the sharded multi-tenant ingest service until SIGINT or
// SIGTERM, then drains: admission stops, every tenant's ring empties, and
// every tenant's closing checkpoint is written before exit.
func runServer(o serverOpts) (int, error) {
	var pol stream.AdmissionPolicy
	switch o.policy {
	case "backpressure":
		pol = stream.Backpressure
	case "shed":
		pol = stream.LoadShed
	default:
		return 2, fmt.Errorf("unknown -policy %q (want backpressure or shed)", o.policy)
	}

	var sync stream.WALSyncPolicy
	switch o.walSync {
	case "", "batch":
		sync = stream.WALSyncBatch
	case "none":
		sync = stream.WALSyncNone
	default:
		return 2, fmt.Errorf("unknown -wal-sync %q (want batch or none)", o.walSync)
	}

	var tel *logparse.Telemetry
	if o.debugAddr != "" {
		tel = logparse.NewTelemetry()
		if err := serveDebug(o.debugAddr, o.debugAddrFile, tel); err != nil {
			return 1, err
		}
	}

	srv, err := server.New(server.Config{
		CheckpointRoot:  o.ckptRoot,
		Shards:          o.shards,
		WAL:             o.wal,
		EventsRoot:      o.eventsRoot,
		EventBlockBytes: o.eventsBlock,
		Stream: stream.Config{
			RingCapacity:    o.ring,
			Policy:          pol,
			CheckpointEvery: o.ckptEvery,
			RetrainBatch:    o.retrainBatch,
			MaxUnmatched:    o.maxUnmatched,
			WALSync:         sync,
			WALSegmentBytes: o.walSegBytes,
		},
		NewRetrainer:   newRetrainerFactory(o),
		NewOnline:      newOnlineFactory(o),
		QuotaRate:      o.quotaRate,
		QuotaBurst:     o.quotaBurst,
		MaxBodyBytes:   o.maxBody,
		RequestTimeout: o.reqTimeout,
		Telemetry:      tel,
	})
	if err != nil {
		return 1, err
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return 1, fmt.Errorf("listen: %w", err)
	}
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return 1, err
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "logstreamd: multi-tenant ingest on http://%s/v1/ingest (%d shards)\n",
		ln.Addr(), o.shards)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "logstreamd: %s; draining %d tenants (deadline %s)\n",
			sig, srv.Stats().Tenants, o.drainTimeout)
	case err := <-serveErr:
		return 1, fmt.Errorf("http server: %w", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
// in-memory generated dataset, optionally wrapped with a premature-EOF
// fault.
func buildSource(in, dataset string, lines int, seed int64, eofAfter int) (func() (io.ReadCloser, error), error) {
	var open func() (io.ReadCloser, error)
	if in != "" {
		open = func() (io.ReadCloser, error) { return os.Open(in) }
	} else {
		cat, err := logparse.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := logparse.WriteMessages(&buf, cat.Generate(seed, lines)); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		open = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		}
	}
	if eofAfter > 0 {
		inner := open
		open = func() (io.ReadCloser, error) {
			rc, err := inner()
			if err != nil {
				return nil, err
			}
			return struct {
				io.Reader
				io.Closer
			}{faultinject.NewReader(rc, faultinject.Faults{EOFAfterLines: eofAfter}), rc}, nil
		}
	}
	return open, nil
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
