package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"logparse/internal/eventstore"
)

// options are the settings of one benchmark invocation.
type options struct {
	seed    int64
	seconds int
	quick   bool
	bin     string // built logstreamd
	base    string // directory data roots are made in
}

// setupReps is how many times an ordinary run sets up from scratch; setup_s
// is the median, because one sub-two-second timing swings by a third.
const setupReps = 3

// runResult is everything one process-level run observed.
type runResult struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64 // the (P) metrics only
	attempted int
	failed    int
	oracle    []string // oracle failures; empty when every output was correct
}

// queries are the four shapes of one query round, ready to append to
// /v1/query?tenant=X&.
type queries struct {
	count, top, list, span string
}

func (q queries) all() []string { return []string{q.count, q.top, q.list, q.span} }

// env is a started server with the workload's verified prefix (and, open
// loop, its preload) ingested and drained: the state a run measures from.
type env struct {
	root   string
	srv    *child
	a, b   *conn    // connection A (ingest) and connection B (queries)
	tenant string   // the tenant the prefix went to
	sent   int64    // lines sent to it so far
	bodies [][]byte // measured bodies, in stream order
	prefix [][]byte // the prefix's lines, for the file-path reference
	digest string   // tenant digest once the prefix had drained
	q      queries  // open loop: prepared against the preloaded tenant
}

// close kills the server if it is still running and removes the data root.
func (e *env) close() {
	if e.srv != nil {
		e.srv.kill()
	}
	if e.a != nil {
		e.a.close()
		e.b.close()
	}
	removeRoot(e.root)
}

// setUp generates the workload's input from the seed, starts a server on a
// fresh data root, ingests the verified prefix (and the preload) and waits
// for it to drain. Its duration is one setup_s sample.
func setUp(ctx context.Context, w workload, sz sizes, opt options) (e *env, err error) {
	root, err := os.MkdirTemp(opt.base, "logbench-*")
	if err != nil {
		return nil, err
	}
	trackRoot(root)
	e = &env{root: root, tenant: "t0"}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()

	lines, err := w.generate(opt.seed, w.corpusLines(sz))
	if err != nil {
		return e, err
	}
	e.prefix = lines[:sz.prefix]
	prefixBodies := makeBodies(e.prefix, prefixBodyLines)
	switch {
	case !w.Cycle:
		e.bodies = makeBodies(lines[sz.prefix:], w.BodyLines)
	case w.BodyLines == prefixBodyLines:
		e.bodies = prefixBodies
	default:
		e.bodies = makeBodies(e.prefix, w.BodyLines)
	}

	if e.srv, err = startServer(ctx, opt.bin, root, w.Online); err != nil {
		return e, err
	}
	e.a, e.b = newConn(e.srv.addr), newConn(e.srv.addr)
	if err = e.a.waitReady(10 * time.Second); err != nil {
		return e, err
	}

	load := len(prefixBodies)
	if w.Hist > 0 {
		e.tenant = "hist"
		load = sz.hist / prefixBodyLines
	}
	url := e.a.ingestURL(e.tenant)
	var t40, t60 time.Time
	for i := 0; i < load; i++ {
		switch i {
		case load * 2 / 5:
			t40 = time.Now()
		case load * 3 / 5:
			t60 = time.Now()
		}
		if !e.a.post(url, prefixBodies[i%len(prefixBodies)], prefixBodyLines) {
			return e, fmt.Errorf("set-up: POST %d of %d to tenant %s failed\n%s", i+1, load, e.tenant, e.srv.stderrTail())
		}
		e.sent += prefixBodyLines
		if e.sent == int64(sz.prefix) {
			st, _, err := e.a.waitProcessed(e.tenant, e.sent, 60*time.Second)
			if err != nil {
				return e, err
			}
			e.digest = st.Digest
		}
	}
	if w.Hist > 0 {
		if _, _, err = e.a.waitProcessed(e.tenant, e.sent, 60*time.Second); err != nil {
			return e, err
		}
		if e.q, err = prepareQueries(e.b, e.tenant, t40, t60); err != nil {
			return e, err
		}
	}
	runtime.GC() // the generator's garbage is set-up's, not the measurement's
	return e, nil
}

// prepareQueries asks the tenant which templates it has and builds the four
// query shapes of a round: the count of the most frequent template, the top
// ten, a listing of the rarest template with at least 100 events, and a
// count over the time range [t40, t60].
func prepareQueries(c *conn, tenant string, t40, t60 time.Time) (queries, error) {
	top, err := c.query(tenant, "mode=top&n=100000")
	if err != nil {
		return queries{}, err
	}
	counts := make(map[int32]int64, len(top.Templates))
	for _, t := range top.Templates {
		counts[t.Template] = t.Count
	}
	frequent, rare, ok := frequentAndRare(counts)
	if !ok {
		return queries{}, fmt.Errorf("tenant %s has no matched events to query", tenant)
	}
	const stamp = time.RFC3339Nano
	return queries{
		count: fmt.Sprintf("mode=count&template=%d", frequent),
		top:   "mode=top&n=10",
		list:  fmt.Sprintf("mode=list&template=%d&limit=100", rare),
		span:  "mode=count&from=" + t40.UTC().Format(stamp) + "&to=" + t60.UTC().Format(stamp),
	}, nil
}

// frequentAndRare picks the two templates a round asks about from a
// template -> event count table: the most frequent one, and the rarest one
// that still has at least 100 events (so the listing has something to
// list). Ties go to the lower id; the unmatched bucket (-1) is ignored.
func frequentAndRare(counts map[int32]int64) (frequent, rare int32, ok bool) {
	ids := make([]int32, 0, len(counts))
	for id := range counts {
		if id >= 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0, 0, false
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	frequent, rare = ids[0], ids[0]
	for _, id := range ids {
		if counts[id] >= 100 {
			rare = id
		}
	}
	return frequent, rare, true
}

// round runs the four queries in order and reports whether all succeeded.
func round(c *conn, tenant string, q queries) bool {
	for _, p := range q.all() {
		if _, err := c.query(tenant, p); err != nil {
			return false
		}
	}
	return true
}

// calibrate times a fixed SHA-256 loop: the same work on every call, so two
// readings that differ say the host changed speed, not the code.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	sha256.Sum256(buf) // touch the pages before timing
	start := time.Now()
	for i := 0; i < 128; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// selfCPU is the benchmark process's own cumulative CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the files under dir whose base name starts
// with prefix.
func dirBytes(dir, prefix string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && strings.HasPrefix(info.Name(), prefix) {
			n += info.Size()
		}
		return nil
	})
	return n
}

// runWorkload is the ordinary, process-level run of one workload: set up
// (several times, for a steady setup_s), measure a fixed amount of work
// against a real server, check the outputs, drain the server.
func runWorkload(ctx context.Context, w workload, opt options) (*runResult, error) {
	sz := w.scaled(opt.seconds, opt.quick)
	res := &runResult{endToEnd: make(map[string]float64), perLayer: make(map[string]float64)}
	calib0 := calibrate()

	reps := setupReps
	if opt.quick {
		reps = 1
	}
	var e *env
	var setups []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setUp(ctx, w, sz, opt); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	res.endToEnd["setup_s"] = median(setups)

	// Oracle 1: the wire path and the file path of the same binary agree on
	// the verified prefix.
	want, err := fileDigest(ctx, opt.bin, e.root, w.Online, e.prefix)
	if err != nil {
		return nil, err
	}
	if e.digest != want {
		res.oracle = append(res.oracle, fmt.Sprintf("digest of tenant %s after the %d-line prefix is %s over the wire, %s from -in", e.tenant, sz.prefix, e.digest, want))
	}

	// Measured part.
	pid := e.srv.pid
	tenant := e.tenant
	if w.Hist > 0 {
		tenant = "live"
	}
	url := e.a.ingestURL(tenant)
	post := func(i int) bool { return e.a.post(url, e.bodies[i%len(e.bodies)], w.BodyLines) }
	measured := int64(sz.posts * w.BodyLines)
	var ingest, rounds loopResult
	var t40, t60, drained time.Time
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	if w.Hist > 0 {
		var wg sync.WaitGroup
		start := time.Now().Add(10 * time.Millisecond)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rounds = openLoop(wallClock{}, start, w.RoundEvery, sz.rounds, func(int) bool { return round(e.b, e.tenant, e.q) })
		}()
		ingest = openLoop(wallClock{}, start, w.PostEvery, sz.posts, post)
		wg.Wait()
		_, drained, err = e.a.waitProcessed(tenant, measured, 120*time.Second)
	} else {
		ingest = closedLoop(wallClock{}, sz.posts, func(i int) bool {
			switch i {
			case sz.posts * 2 / 5:
				t40 = time.Now()
			case sz.posts * 3 / 5:
				t60 = time.Now()
			}
			return post(i)
		})
		_, drained, err = e.a.waitProcessed(tenant, e.sent+measured, 120*time.Second)
	}
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, e.srv.stderrTail())
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	res.finishIngest(w, sz, ingest, drained, cpu1-cpu0, selfCPU()-self0)
	fmt.Printf("%s: %d lines in %d POSTs measured for %.2f s\n", w.Name, measured, sz.posts, drained.Sub(ingest.first).Seconds())
	if w.Hist == 0 {
		// A closed-loop workload queries its own tenant once ingest has
		// drained, so every workload reports a query latency; the server
		// CPU above does not include it.
		if e.q, err = prepareQueries(e.b, tenant, t40, t60); err != nil {
			return nil, err
		}
		rounds = closedLoop(wallClock{}, sz.rounds, func(int) bool { return round(e.b, tenant, e.q) })
	}
	res.attempted = ingest.attempted + rounds.attempted
	res.failed = ingest.failed + rounds.failed

	roundMS := sortedMS(rounds.lat)
	res.endToEnd["query_p50_ms"] = percentile(roundMS, 50)
	pct, v := tail(roundMS)
	res.perLayer["query.round_tail_ms"], res.perLayer["query.round_tail_pct"] = v, pct
	res.perLayer["query.round_samples"] = float64(len(roundMS))

	// Oracle 2: every line sent was accepted, processed, and none shed.
	sent := map[string]int64{e.tenant: e.sent}
	sent[tenant] += measured
	var last tenantStats
	for id, n := range sent {
		st, err := e.a.stats(id)
		if err != nil {
			return nil, err
		}
		s := st.Stream
		if s.Processed != n || s.Shed != 0 || s.WALError != "" || s.EventStoreError != "" || st.Error != "" {
			res.oracle = append(res.oracle, fmt.Sprintf("tenant %s: sent %d lines, processed %d, shed %d, wal error %q, event-store error %q, tenant error %q",
				id, n, s.Processed, s.Shed, s.WALError, s.EventStoreError, st.Error))
		}
		if id == tenant {
			last = st
		}
	}
	res.perLayer["server.templates"] = float64(last.Stream.Templates)
	res.perLayer["server.checkpoints"] = float64(last.Stream.Checkpoints)
	res.perLayer["server.retrains"] = float64(last.Stream.Retrains)
	res.perLayer["server.ring_high_water"] = float64(last.Stream.RingHighWater)

	// Oracle 3: the HTTP query path and an in-process reader agree on the
	// idle tenant's store, and the store agrees with the engine.
	res.oracle = append(res.oracle, checkStore(e, w, e.tenant)...)

	if res.endToEnd["rss_peak_mb"], err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}
	if err := e.srv.drain(40 * time.Second); err != nil {
		res.oracle = append(res.oracle, err.Error())
	}
	var totalLines int64
	for _, n := range sent {
		totalLines += n
	}
	store := dirBytes(filepath.Join(e.root, "ev"), "evt-")
	res.endToEnd["store_bytes_per_line"] = float64(store) / float64(totalLines)
	res.perLayer["disk.store_bytes"] = float64(store)
	res.perLayer["disk.wal_bytes"] = float64(dirBytes(filepath.Join(e.root, "ckpt"), "wal-"))
	res.perLayer["disk.ckpt_bytes"] = float64(dirBytes(filepath.Join(e.root, "ckpt"), "checkpoint.ckpt"))

	calib1 := calibrate()
	res.perLayer["machine.calib_ms"] = (calib0 + calib1) / 2
	fmt.Printf("%s: calibration loop took %.1f ms before, %.1f ms after\n", w.Name, calib0, calib1)
	if d := (calib1 - calib0) / calib0; d > 0.10 || d < -0.10 {
		fmt.Printf("note: host speed drifted by more than 10%% during %s\n", w.Name)
	}
	return res, nil
}

// finishIngest turns the ingest loop's observations into metrics. drained is
// the instant the server's Processed count was seen to reach the total.
func (res *runResult) finishIngest(w workload, sz sizes, ingest loopResult, drained time.Time, serverCPU, selfCPU float64) {
	lines := float64(sz.posts * w.BodyLines)
	acked := float64((ingest.attempted - ingest.failed) * w.BodyLines)
	res.endToEnd["lines_per_s"] = lines / drained.Sub(ingest.first).Seconds()
	res.endToEnd["server_cpu_s_per_mline"] = serverCPU / (acked / 1e6)
	ackMS := sortedMS(ingest.lat)
	p50 := percentile(ackMS, 50)
	res.endToEnd["ack_p50_ms"], res.perLayer["http.ack_p50_ms"] = p50, p50
	pct, v := tail(ackMS)
	res.perLayer["http.ack_tail_ms"], res.perLayer["http.ack_tail_pct"] = v, pct
	res.perLayer["http.ack_samples"] = float64(len(ackMS))
	_, res.perLayer["loadgen.late_tail_ms"] = tail(sortedMS(ingest.late))
	res.perLayer["loadgen.cpu_s"] = selfCPU
}

// checkStore is oracle 3 on one idle tenant.
func checkStore(e *env, w workload, tenant string) []string {
	var bad []string
	all, err := e.b.query(tenant, "mode=count&unmatched=true")
	if err != nil {
		return []string{err.Error()}
	}
	matched, err := e.b.query(tenant, "mode=count")
	if err != nil {
		return []string{err.Error()}
	}
	top, err := e.b.query(tenant, "mode=top&n=100000")
	if err != nil {
		return []string{err.Error()}
	}
	st, err := e.b.stats(tenant)
	if err != nil {
		return []string{err.Error()}
	}
	if all.Count == nil || matched.Count == nil {
		return []string{"count query answered without a count"}
	}
	var topSum int64
	for _, t := range top.Templates {
		if t.Template >= 0 {
			topSum += t.Count
		}
	}
	if topSum != *matched.Count {
		bad = append(bad, fmt.Sprintf("tenant %s: mode=top counts sum to %d, mode=count says %d", tenant, topSum, *matched.Count))
	}
	if w.Online != "" && *all.Count != st.Stream.EventStoreLastSeq {
		// An online learner assigns every line exactly one event.
		bad = append(bad, fmt.Sprintf("tenant %s: store counts %d events, engine's EventStoreLastSeq is %d", tenant, *all.Count, st.Stream.EventStoreLastSeq))
	}
	rd, _, err := eventstore.OpenReader(filepath.Join(e.root, "ev", "tenants", tenant), eventstore.ReaderOptions{})
	if err != nil {
		return append(bad, err.Error())
	}
	nAll, _, err1 := rd.Count(eventstore.Query{IncludeUnmatched: true})
	nMatched, _, err2 := rd.Count(eventstore.Query{})
	if err := errors.Join(err1, err2); err != nil {
		return append(bad, err.Error())
	}
	if nAll != *all.Count || nMatched != *matched.Count {
		bad = append(bad, fmt.Sprintf("tenant %s: HTTP counts %d events (%d matched), an in-process reader %d (%d matched)", tenant, *all.Count, *matched.Count, nAll, nMatched))
	}
	return bad
}
