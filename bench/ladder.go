package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"logparse"
	"logparse/internal/core"
	"logparse/internal/eventstore"
	"logparse/internal/match"
	"logparse/internal/server"
	"logparse/internal/stream"
	"logparse/internal/stream/wal"
	"logparse/internal/telemetry"
)

// checkpointEvery is the engine's default checkpoint interval in lines; the
// stand-alone event-store and checkpoint rungs finalize and save on it so
// they do the work the engine rungs do.
const checkpointEvery = 5000

// ladder is the traced run of one workload: passes over the same batches,
// each one public entry point further out, timed from the benchmark's own
// code. It runs on one P so that what the engine's two goroutines do adds
// up instead of overlapping: the rungs attribute cost, they do not predict
// the two-core pipeline's wall clock.
type ladder struct {
	w      workload
	root   string
	tr     *tracer
	lines  int        // stream length: the size every ns/line below depends on
	bs     [][][]byte // the corpus as batches; pass i uses bs[i%len(bs)]
	bodies [][]byte   // the same batches as POST bodies
	nb     int        // batches per pass
	m      map[string]float64
}

// batch returns pass batch i.
func (l *ladder) batch(i int) [][]byte { return l.bs[i%len(l.bs)] }

// newEngineParts builds what logstreamd gives each engine for this
// workload's mode: an online learner, or the default retrain chain.
func newEngineParts(w workload) (stream.OnlineParser, stream.Retrainer, error) {
	if w.Online != "" {
		p, err := logparse.NewOnlineParser(w.Online, logparse.Options{})
		return p, nil, err
	}
	rt, err := logparse.NewStreamRetrainer("", logparse.Options{SupportFrac: 0.005, NumGroups: 40, Seed: 1}, logparse.RobustPolicy{})
	return nil, rt, err
}

// runLadder climbs the ladder and returns the (L) per-layer metrics.
func runLadder(w workload, sz sizes, opt options, tr *tracer) (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	root, err := os.MkdirTemp(opt.base, "logbench-ladder-*")
	if err != nil {
		return nil, err
	}
	trackRoot(root)
	defer removeRoot(root)

	l := &ladder{w: w, root: root, tr: tr, lines: sz.ladder, m: make(map[string]float64)}
	generated := l.lines
	if w.Cycle {
		generated = min(generated, sz.prefix)
	}
	id := tr.begin("gen", -1, -1)
	genStart := time.Now()
	corpus, err := w.generate(opt.seed, generated)
	if err != nil {
		return nil, err
	}
	l.m["gen.ns_per_line"] = float64(time.Since(genStart)) / float64(generated)
	tr.end(id)
	l.bs = batches(corpus, w.BodyLines)
	l.bodies = makeBodies(corpus, w.BodyLines)
	l.nb = l.lines / w.BodyLines
	l.lines = l.nb * w.BodyLines

	coreNS := l.corePass()
	l.m["core.tokenize_ns_per_line"] = coreNS

	streamPass, tmpls, err := l.streamPass()
	if err != nil {
		return nil, fmt.Errorf("stream rung: %w", err)
	}
	idx, own, err := l.parserPasses(sz, tmpls, coreNS)
	if err != nil {
		return nil, err
	}
	walNS, err := l.walPass()
	if err != nil {
		return nil, fmt.Errorf("wal rung: %w", err)
	}
	storeNS, err := l.storePass(idx)
	if err != nil {
		return nil, fmt.Errorf("eventstore rung: %w", err)
	}
	ckptNS, err := l.checkpointPass(tmpls, idx)
	if err != nil {
		return nil, fmt.Errorf("checkpoint rung: %w", err)
	}
	serverPass, err := l.serverPass()
	if err != nil {
		return nil, fmt.Errorf("server rung: %w", err)
	}
	httpPass, evDir, t40, t60, err := l.httpPass(tr, "http-on")
	if err != nil {
		return nil, fmt.Errorf("http rung: %w", err)
	}
	httpOff, _, _, _, err := l.httpPass(nil, "http-off")
	if err != nil {
		return nil, fmt.Errorf("http rung, spans off: %w", err)
	}
	if err := l.readPasses(evDir, sz.ladderReads, t40, t60); err != nil {
		return nil, fmt.Errorf("eventstore read rungs: %w", err)
	}

	l.m["stream.pass_ns_per_line"] = streamPass
	l.m["server.pass_ns_per_line"] = serverPass
	l.m["http.pass_ns_per_line"] = httpPass
	parts := coreNS + own + walNS + storeNS + ckptNS
	streamSelf := max(0, streamPass-parts)
	serverSelf := max(0, serverPass-streamPass)
	httpSelf := max(0, httpPass-serverPass)
	l.m["stream.self_ns_per_line"] = streamSelf
	l.m["server.self_ns_per_line"] = serverSelf
	l.m["http.self_ns_per_line"] = httpSelf
	l.m["ladder.closure"] = (parts + streamSelf + serverSelf + httpSelf) / httpPass
	l.m["trace.overhead_share"] = (httpPass - httpOff) / httpOff
	return l.m, nil
}

// pass times fn, which makes one pass over the batches under a root span,
// and returns nanoseconds per line.
func (l *ladder) pass(tr *tracer, name string, lines int, fn func(parent int) error) (float64, error) {
	id := tr.begin(name, -1, -1)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	tr.end(id)
	return float64(d) / float64(lines), err
}

// corePass: ContentOfBytes + TokenizeBytes per line, nothing else.
func (l *ladder) corePass() float64 {
	var tok [][]byte
	ns, _ := l.pass(l.tr, "core.pass", l.lines, func(parent int) error {
		for i := 0; i < l.nb; i++ {
			id := l.tr.begin("core", parent, i)
			for _, line := range l.batch(i) {
				tok = core.TokenizeBytes(core.ContentOfBytes(line), tok)
			}
			l.tr.end(id)
		}
		return nil
	})
	return ns
}

// learnPass tokenizes and feeds nb batches to fn, recording the group index
// of each line when into is non-nil.
func (l *ladder) learnPass(name string, nb int, into []int32, fn func(tokens [][]byte) int) float64 {
	var tok [][]byte
	n := 0
	ns, _ := l.pass(l.tr, name+".pass", nb*l.w.BodyLines, func(parent int) error {
		for i := 0; i < nb; i++ {
			id := l.tr.begin(name, parent, i)
			for _, line := range l.batch(i) {
				tok = core.TokenizeBytes(core.ContentOfBytes(line), tok)
				g := -1
				if len(tok) > 0 {
					g = fn(tok)
				}
				if into != nil {
					into[n] = int32(g)
				}
				n++
			}
			l.tr.end(id)
		}
		return nil
	})
	return ns
}

// parserPasses runs the matcher and both learners over the stream. Each
// pass includes tokenizing, so a parser's own cost is its pass minus the
// core pass. It returns the per-line group index of the workload's own
// parser (what the engine would record as events) and that parser's own
// cost per line.
func (l *ladder) parserPasses(sz sizes, tmpls []core.Template, coreNS float64) (idx []int32, own float64, err error) {
	idx = make([]int32, l.lines)
	into := func(mode string) []int32 {
		if l.w.Online == mode {
			return idx
		}
		return nil
	}

	m, err := match.New(tmpls)
	if err != nil {
		return nil, 0, fmt.Errorf("match rung: %w", err)
	}
	matchNS := l.learnPass("match", l.nb, into(""), func(tok [][]byte) int {
		if g, ok := m.MatchBytes(tok); ok {
			return g
		}
		return -1
	}) - coreNS
	l.m["match.ns_per_line"] = max(0, matchNS)
	l.m["match.templates"] = float64(len(tmpls))

	costs := map[string]float64{"": matchNS}
	for _, name := range []string{"Drain", "Spell"} {
		p, err := logparse.NewOnlineParser(name, logparse.Options{})
		if err != nil {
			return nil, 0, err
		}
		nb := l.nb
		if name == "Spell" && l.w.Online != "Spell" {
			nb = min(nb, sz.ladderSpell/l.w.BodyLines)
		}
		key := strings.ToLower(name)
		ns := l.learnPass(key, nb, into(name), func(tok [][]byte) int {
			g, _ := p.LearnBytes(tok)
			return g
		}) - coreNS
		costs[name] = ns
		l.m[key+".learn_ns_per_line"] = max(0, ns)
		l.m[key+".templates"] = float64(len(p.Templates()))
		var snaps []float64
		for i := 0; i < 3; i++ {
			id := l.tr.begin(key+".snapshot", -1, -1)
			start := time.Now()
			if _, err := p.Snapshot(); err != nil {
				return nil, 0, err
			}
			snaps = append(snaps, float64(time.Since(start))/float64(time.Millisecond))
			l.tr.end(id)
		}
		l.m[key+".snapshot_ms"] = median(snaps)
	}
	return idx, max(0, costs[l.w.Online]), nil
}

// spanSums returns the summed duration of the tracer's spans by name, for
// the spans recorded since mark.
func (l *ladder) spanSums(mark int) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range l.tr.spans[mark:] {
		out[s.Name] += float64(s.End - s.Start)
	}
	return out
}

// walPass: Append per line and one Commit per batch, -wal-sync batch, as
// PushBatch drives the log.
func (l *ladder) walPass() (float64, error) {
	tel := telemetry.New()
	dir := filepath.Join(l.root, "wal")
	w, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch, Telemetry: tel})
	if err != nil {
		return 0, err
	}
	mark := len(l.tr.spans)
	seq := uint64(0)
	_, err = l.pass(l.tr, "wal.pass", l.lines, func(parent int) error {
		for i := 0; i < l.nb; i++ {
			id := l.tr.begin("wal.append", parent, i)
			for _, line := range l.batch(i) {
				seq++
				if err := w.Append(seq, line); err != nil {
					return err
				}
			}
			l.tr.end(id)
			id = l.tr.begin("wal.commit", parent, i)
			if err := w.Commit(); err != nil {
				return err
			}
			l.tr.end(id)
		}
		return nil
	})
	if err = errors.Join(err, w.Close()); err != nil {
		return 0, err
	}
	sums := l.spanSums(mark)
	n := float64(l.lines)
	l.m["wal.append_ns_per_line"] = sums["wal.append"] / n
	l.m["wal.commit_us_per_batch"] = sums["wal.commit"] / float64(l.nb) / 1e3
	l.m["wal.bytes_per_line"] = float64(dirBytes(dir, "wal-")) / n
	l.m["wal.fsyncs_per_kline"] = float64(tel.Histogram("stream.wal.fsync.seconds", telemetry.DurationBuckets).Count()) / (n / 1e3)
	l.m["wal.segments"] = float64(tel.Counter("stream.wal.segments.created").Value())
	return (sums["wal.append"] + sums["wal.commit"]) / n, nil
}

// storePass: Append per line with the own parser's decision and Finalize
// per checkpoint interval, as the engine drives the event store.
func (l *ladder) storePass(idx []int32) (float64, error) {
	dir := filepath.Join(l.root, "ev")
	s, _, err := eventstore.Open(eventstore.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	mark := len(l.tr.spans)
	finalize := func(parent, i int) error {
		id := l.tr.begin("eventstore.finalize", parent, i)
		defer l.tr.end(id)
		return s.Finalize()
	}
	_, err = l.pass(l.tr, "eventstore.pass", l.lines, func(parent int) error {
		n := 0
		for i := 0; i < l.nb; i++ {
			id := l.tr.begin("eventstore.append", parent, i)
			for range l.batch(i) {
				ev := eventstore.Event{Seq: int64(n + 1), Time: time.Now().UnixNano(), Template: idx[n], Kind: eventstore.KindMatched}
				if idx[n] < 0 {
					ev.Kind = eventstore.KindUnmatched
				}
				if err := s.Append(ev); err != nil {
					return err
				}
				n++
			}
			l.tr.end(id)
			if n%checkpointEvery < l.w.BodyLines {
				if err := finalize(parent, i); err != nil {
					return err
				}
			}
		}
		return finalize(parent, l.nb)
	})
	blocks := s.Stats().Blocks
	if err = errors.Join(err, s.Close()); err != nil {
		return 0, err
	}
	sums := l.spanSums(mark)
	n := float64(l.lines)
	finalizes := float64(l.lines/checkpointEvery + 1)
	l.m["eventstore.append_ns_per_line"] = sums["eventstore.append"] / n
	l.m["eventstore.finalize_us_per_block"] = sums["eventstore.finalize"] / finalizes / 1e3
	l.m["eventstore.bytes_per_event"] = float64(dirBytes(dir, "evt-")) / n
	l.m["eventstore.blocks"] = float64(blocks)
	return (sums["eventstore.append"] + sums["eventstore.finalize"]) / n, nil
}

// checkpointPass saves the workload's real state every checkpoint interval
// and once more at the end, as a serving engine does: the learner's
// snapshot plus the template list in online mode, the converged template
// list in match mode. Learning between the saves is not timed.
func (l *ladder) checkpointPass(tmpls []core.Template, idx []int32) (float64, error) {
	dir := filepath.Join(l.root, "ckpt")
	store, err := stream.NewStore(dir)
	if err != nil {
		return 0, err
	}
	online, _, err := newEngineParts(l.w)
	if err != nil {
		return 0, err
	}
	key := strings.ToLower(l.w.Online)
	counts := make([]int64, len(tmpls))
	mark := len(l.tr.spans)
	saves := 0
	save := func(parent, i int, offset int64) error {
		st := &stream.State{Offset: offset, Counters: stream.Counters{Processed: offset, Matched: offset}}
		if online != nil {
			id := l.tr.begin(key+".snapshot", parent, i)
			blob, err := online.Snapshot()
			l.tr.end(id)
			if err != nil {
				return err
			}
			st.Online = &stream.OnlineState{Parser: online.Name(), Data: blob}
			tmpls = online.Templates()
		}
		st.Templates = make([]stream.SavedTemplate, len(tmpls))
		for j, t := range tmpls {
			st.Templates[j] = stream.SavedTemplate{ID: t.ID, Tokens: t.Tokens}
			if j < len(counts) {
				st.Templates[j].Count = counts[j]
			}
		}
		id := l.tr.begin("checkpoint.save", parent, i)
		defer l.tr.end(id)
		saves++
		return store.Save(st)
	}
	var tok [][]byte
	_, err = l.pass(l.tr, "checkpoint.pass", l.lines, func(parent int) error {
		n := 0
		for i := 0; i < l.nb; i++ {
			for _, line := range l.batch(i) {
				if online != nil {
					if tok = core.TokenizeBytes(core.ContentOfBytes(line), tok); len(tok) > 0 {
						online.LearnBytes(tok)
					}
				}
				if g := idx[n]; g >= 0 {
					for int(g) >= len(counts) {
						counts = append(counts, 0)
					}
					counts[g]++
				}
				n++
			}
			if n%checkpointEvery < l.w.BodyLines {
				if err := save(parent, i, int64(n)); err != nil {
					return err
				}
			}
		}
		return save(parent, l.nb, int64(n))
	})
	if err != nil {
		return 0, err
	}
	sums := l.spanSums(mark)
	l.m["checkpoint.save_ms"] = sums["checkpoint.save"] / float64(saves) / 1e6
	l.m["checkpoint.bytes"] = float64(dirBytes(dir, "checkpoint.ckpt")) / 2 // current and previous generation
	l.m["checkpoint.saves"] = float64(saves)
	return (sums["checkpoint.save"] + sums[key+".snapshot"]) / float64(l.lines), nil
}

// engineDirs makes a fresh set of directories for one envelope rung.
func (l *ladder) engineDirs(name string) (ckpt, ev string) {
	base := filepath.Join(l.root, name)
	return filepath.Join(base, "ckpt"), filepath.Join(base, "ev")
}

// streamPass: a stream.Engine with WAL, event store and checkpoints on,
// from Serve and the first PushBatch until Stop has drained the ring and
// the closing checkpoint is written.
func (l *ladder) streamPass() (float64, []core.Template, error) {
	online, retrainer, err := newEngineParts(l.w)
	if err != nil {
		return 0, nil, err
	}
	ckpt, ev := l.engineDirs("stream")
	eng, err := stream.New(stream.Config{
		CheckpointDir: ckpt, WALDir: filepath.Join(ckpt, "wal"), EventStoreDir: ev,
		Online: online, Retrainer: retrainer,
	})
	if err != nil {
		return 0, nil, err
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mark := len(l.tr.spans)
	ns, err := l.pass(l.tr, "stream.pass", l.lines, func(parent int) error {
		served := make(chan error, 1)
		go func() { served <- eng.Serve(ctx) }()
		if err := eng.WaitServing(ctx); err != nil {
			return err
		}
		for i := 0; i < l.nb; i++ {
			id := l.tr.begin("stream.push", parent, i)
			res, err := eng.PushBatch(ctx, l.batch(i))
			l.tr.end(id)
			if err != nil || res.Accepted != l.w.BodyLines {
				return fmt.Errorf("PushBatch %d: accepted %d of %d: %v", i, res.Accepted, l.w.BodyLines, err)
			}
		}
		eng.Stop()
		return <-served
	})
	if err != nil {
		return 0, nil, err
	}
	runtime.ReadMemStats(&after)
	if got := eng.Stats().Processed; got != int64(l.lines) {
		return 0, nil, fmt.Errorf("engine processed %d of %d lines", got, l.lines)
	}
	n := float64(l.lines)
	l.m["stream.ack_us_per_batch"] = l.spanSums(mark)["stream.push"] / float64(l.nb) / 1e3
	l.m["stream.allocs_per_line"] = float64(after.Mallocs-before.Mallocs) / n
	l.m["stream.alloc_bytes_per_line"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	tmpls, _ := eng.Result()
	return ns, tmpls, nil
}

// newServer builds a server the way logstreamd -listen -wal -events does.
func (l *ladder) newServer(name string) (*server.Server, string, error) {
	ckpt, ev := l.engineDirs(name)
	cfg := server.Config{CheckpointRoot: ckpt, WAL: true, EventsRoot: ev}
	if l.w.Online != "" {
		cfg.NewOnline = func(string) (stream.OnlineParser, error) {
			p, _, err := newEngineParts(l.w)
			return p, err
		}
	} else {
		cfg.NewRetrainer = func(string) (stream.Retrainer, error) {
			_, rt, err := newEngineParts(l.w)
			return rt, err
		}
	}
	srv, err := server.New(cfg)
	return srv, filepath.Join(ev, "tenants", "t0"), err
}

// serverPass: server.IngestBatch per batch, then Shutdown (drain and
// closing checkpoint).
func (l *ladder) serverPass() (float64, error) {
	srv, _, err := l.newServer("server")
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	return l.pass(l.tr, "server.pass", l.lines, func(parent int) error {
		for i := 0; i < l.nb; i++ {
			id := l.tr.begin("server.ingest", parent, i)
			res, err := srv.IngestBatch(ctx, "t0", l.batch(i))
			l.tr.end(id)
			if err != nil || res.Accepted != l.w.BodyLines {
				return fmt.Errorf("IngestBatch %d: accepted %d of %d: %v", i, res.Accepted, l.w.BodyLines, err)
			}
		}
		return srv.Shutdown(ctx)
	})
}

// httpPass: the server's Handler behind a loopback listener in this
// process, one keep-alive connection posting ready bodies, then Shutdown.
// With tr nil it records no spans: the same pass, for the tracing overhead.
// It returns the tenant's event-store directory and the instants 40% and
// 60% of the way through, for the read rungs.
func (l *ladder) httpPass(tr *tracer, name string) (ns float64, evDir string, t40, t60 time.Time, err error) {
	srv, evDir, err := l.newServer(name)
	if err != nil {
		return 0, "", t40, t60, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, "", t40, t60, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newConn(ln.Addr().String())
	defer c.close()
	url := c.ingestURL("t0")
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns, err = l.pass(tr, "http.pass", l.lines, func(parent int) error {
		for i := 0; i < l.nb; i++ {
			switch i {
			case l.nb * 2 / 5:
				t40 = time.Now()
			case l.nb * 3 / 5:
				t60 = time.Now()
			}
			id := tr.begin("http.post", parent, i)
			ok := c.post(url, l.bodies[i%len(l.bodies)], l.w.BodyLines)
			tr.end(id)
			if !ok {
				return fmt.Errorf("POST %d failed", i)
			}
		}
		return srv.Shutdown(ctx)
	})
	runtime.ReadMemStats(&after)
	err = errors.Join(err, hs.Shutdown(ctx))
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if tr != nil {
		l.m["http.alloc_bytes_per_line"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(l.lines)
	}
	return ns, evDir, t40, t60, err
}

// readPasses runs the four query shapes of a round against the store the
// top rung wrote, each round on a freshly opened reader as the server does.
func (l *ladder) readPasses(dir string, rounds int, t40, t60 time.Time) error {
	rd, _, err := eventstore.OpenReader(dir, eventstore.ReaderOptions{})
	if err != nil {
		return err
	}
	counts, _, err := rd.TemplateCounts(eventstore.Query{})
	if err != nil {
		return err
	}
	frequent, rare, ok := frequentAndRare(counts)
	if !ok {
		return errors.New("the top rung's store holds no matched events")
	}

	shapes := []struct {
		name string
		run  func(*eventstore.Reader) (eventstore.QueryStats, error)
	}{
		{"eventstore.q_count", func(r *eventstore.Reader) (eventstore.QueryStats, error) {
			_, st, err := r.Count(eventstore.Query{TemplateIDs: []int32{frequent}})
			return st, err
		}},
		{"eventstore.q_top", func(r *eventstore.Reader) (eventstore.QueryStats, error) {
			_, st, err := r.TemplateCounts(eventstore.Query{})
			return st, err
		}},
		{"eventstore.q_list", func(r *eventstore.Reader) (eventstore.QueryStats, error) {
			return r.Scan(eventstore.Query{TemplateIDs: []int32{rare}, Limit: 100}, func(eventstore.Event) error { return nil })
		}},
		{"eventstore.q_range", func(r *eventstore.Reader) (eventstore.QueryStats, error) {
			_, st, err := r.Count(eventstore.Query{From: t40, To: t60})
			return st, err
		}},
	}
	samples := make(map[string][]float64)
	var blocks, skipped, inflated int
	for i := 0; i < rounds; i++ {
		parent := l.tr.begin("eventstore.round", -1, i)
		id := l.tr.begin("eventstore.open_reader", parent, i)
		start := time.Now()
		rd, _, err := eventstore.OpenReader(dir, eventstore.ReaderOptions{})
		samples["eventstore.open_reader"] = append(samples["eventstore.open_reader"], float64(time.Since(start))/1e6)
		l.tr.end(id)
		if err != nil {
			return err
		}
		for _, s := range shapes {
			id := l.tr.begin(s.name, parent, i)
			start := time.Now()
			st, err := s.run(rd)
			samples[s.name] = append(samples[s.name], float64(time.Since(start))/1e6)
			l.tr.end(id)
			if err != nil {
				return err
			}
			blocks, skipped, inflated = blocks+st.Blocks, skipped+st.Skipped, inflated+st.Decompressed
		}
		l.tr.end(parent)
	}
	for name, xs := range samples {
		l.m[name+"_ms"] = median(xs)
	}
	l.m["eventstore.blocks_skipped_share"] = float64(skipped) / float64(blocks)
	l.m["eventstore.blocks_decompressed_share"] = float64(inflated) / float64(blocks)
	return nil
}
