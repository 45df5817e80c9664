package eventstore

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// Query selects events by template and time. Tenancy is directory-level:
// a Reader is opened over one tenant's store directory, so there is no
// tenant field here — the server resolves <events root>/tenants/<id>
// before opening.
type Query struct {
	// TemplateIDs restricts the result to events of these engine template
	// indices (matched and late-matched kinds), a set: naming an id twice
	// selects it once. Empty means every template.
	TemplateIDs []int32
	// From and To bound the event time, half-open [From, To): events of one
	// consumer batch share an instant, so adjacent windows [a, b) and [b, c)
	// must tile without counting a batch twice. Zero values mean unbounded.
	From, To time.Time
	// IncludeUnmatched additionally selects unmatched events (Template
	// −1). Ignored when TemplateIDs is non-empty — unmatched events have
	// no template to name.
	IncludeUnmatched bool
	// Limit caps the events Scan yields (0 = unlimited). Count and
	// TemplateCounts ignore it.
	Limit int
}

// normalized returns q with its template ids sorted and deduplicated, in
// a copy: the form every query method works on, so a repeated id cannot
// count twice from a footer index.
func (q Query) normalized() Query {
	q.TemplateIDs = slices.Clone(q.TemplateIDs)
	slices.Sort(q.TemplateIDs)
	q.TemplateIDs = slices.Compact(q.TemplateIDs)
	return q
}

// timeBounds renders the query's time range as unix nanoseconds with
// open ends saturated.
func (q Query) timeBounds() (from, to int64) {
	from, to = math.MinInt64, math.MaxInt64
	if !q.From.IsZero() {
		from = q.From.UnixNano()
	}
	if !q.To.IsZero() {
		to = q.To.UnixNano()
	}
	return from, to
}

// matches reports whether one event the block decoder passed — so already
// one of TemplateIDs, when there are any — satisfies the rest of the query.
func (q Query) matches(ev Event, from, to int64) bool {
	if ev.Time < from || ev.Time >= to {
		return false
	}
	if len(q.TemplateIDs) > 0 {
		return ev.Template >= 0
	}
	if ev.Template < 0 {
		return q.IncludeUnmatched
	}
	return ev.Kind != KindUnmatched
}

// QueryStats reports how much work one query did — the skip-scan
// accounting the effectiveness tests assert on.
type QueryStats struct {
	// Blocks is the store's finalized block count; Skipped of them were
	// eliminated on metadata alone (time range, footer index) without
	// touching their bytes.
	Blocks  int `json:"blocks"`
	Skipped int `json:"skipped"`
	// IndexOnly counts blocks answered exactly from the footer's
	// inverted index — consulted, never decoded.
	IndexOnly int `json:"index_only"`
	// Decompressed counts blocks whose body was actually read — a v4
	// block whose sparse lists alone answered too; BytesDecompressed is
	// their total raw (v1, v2: inflated) size.
	Decompressed      int   `json:"decompressed"`
	BytesDecompressed int64 `json:"bytes_decompressed"`
	// Events counts the events of the Decompressed blocks — all of each,
	// also of the block a Limit stopped in — so it stays comparable with
	// BytesDecompressed; Selected counts the events that satisfied the query.
	Events   int64 `json:"events_scanned"`
	Selected int64 `json:"selected"`
}

// ReaderOptions configures OpenReader.
type ReaderOptions struct {
	// Telemetry, when non-nil, publishes eventstore.query.* metrics.
	Telemetry *telemetry.Handle
}

// ReadInfo reports what OpenReader found.
type ReadInfo struct {
	Segments int
	Blocks   int
	Events   int64
	LastSeq  int64
	// TornTail is true when the newest segment ended mid-block — normal
	// when reading under a live writer; the finalized prefix is served.
	TornTail bool
	// Damaged carries the reason scanning stopped early on corrupt bytes
	// (the prefix before the damage is still served), empty when clean.
	Damaged string
}

// readBlock is one finalized block's metadata plus its location.
type readBlock struct {
	seg  int
	meta blockMeta
	// index is the footer's template→count inverted index (matched plus
	// late-matched events).
	index []IndexEntry
}

type readerTelemetry struct {
	opens      *telemetry.Counter
	refreshes  *telemetry.Counter
	refreshB   *telemetry.Counter
	queries    *telemetry.Counter
	blocksRead *telemetry.Counter
	skipped    *telemetry.Counter
	bytesInfl  *telemetry.Counter
	querySec   *telemetry.Histogram
}

func newReaderTelemetry(h *telemetry.Handle) readerTelemetry {
	return readerTelemetry{
		opens:      h.Counter("eventstore.reader.opens"),
		refreshes:  h.Counter("eventstore.reader.refreshes"),
		refreshB:   h.Counter("eventstore.reader.refresh_bytes"),
		queries:    h.Counter("eventstore.queries"),
		blocksRead: h.Counter("eventstore.blocks.read"),
		skipped:    h.Counter("eventstore.blocks.skipped"),
		bytesInfl:  h.Counter("eventstore.bytes.decompressed"),
		querySec:   h.Histogram("eventstore.query.seconds", telemetry.DurationBuckets),
	}
}

// Reader answers queries over one store directory, read-only. It is an
// immutable snapshot of the block metadata verified so far — safe for
// concurrent use; blocks finalized later become visible through Refresh,
// which returns the next snapshot and leaves this one to the queries
// already running on it.
type Reader struct {
	dir    string
	scan   seglog.ScanInfo // the verified prefix: segment paths and Refresh's resume point
	info   ReadInfo
	blocks []readBlock
	tm     readerTelemetry
	now    func() time.Time
}

// OpenReader scans dir's segments read-only. Crash damage is tolerated,
// never repaired: a torn tail or corrupt block stops the metadata scan at
// the last verified block (recorded in ReadInfo) and the surviving prefix
// is served — repair belongs to the writer's Open.
func OpenReader(dir string, opts ReaderOptions) (*Reader, ReadInfo, error) {
	r := &Reader{dir: dir, tm: newReaderTelemetry(opts.Telemetry), now: time.Now}
	r.tm.opens.Inc()
	return r.extend(nil)
}

// Refresh returns a Reader that also covers what was written since r was
// opened or last refreshed — r itself when that is nothing. Between a
// writer's Opens a store only grows, so only the bytes past r's last
// verified block and any newer segments are read (a tail torn under a live
// writer is read again next time); the block metadata before them is
// shared, not re-verified. A store that Open's repair or AlignTo cut back
// is not an extension of r: Refresh then fails with an error wrapping
// seglog.ErrNotExtension and the caller opens a fresh Reader.
func (r *Reader) Refresh() (*Reader, ReadInfo, error) {
	r.tm.refreshes.Inc()
	return r.extend(r.tm.refreshB)
}

// extend scans what lies beyond r.scan into the next snapshot, counting the
// bytes it read into read.
func (r *Reader) extend(read *telemetry.Counter) (*Reader, ReadInfo, error) {
	n := &Reader{dir: r.dir, tm: r.tm, now: r.now, blocks: r.blocks[:len(r.blocks):len(r.blocks)]}
	si, err := seglog.Scan(&spec, r.dir, r.scan, verifyBlock(true), func(seg int, off int64, _ seglog.Frame, v blockView) error {
		v.meta.off = off
		n.blocks = append(n.blocks, readBlock{seg: seg, meta: v.meta, index: v.index})
		return nil
	})
	read.Add(uint64(si.Read))
	n.scan = si
	n.info = ReadInfo{Segments: len(si.Paths), Blocks: si.Frames, Events: si.Units, LastSeq: int64(si.LastSeq)}
	switch e := err.(type) {
	case nil:
	case *seglog.TornTailError:
		n.info.TornTail = true
	case *seglog.CorruptError:
		n.info.Damaged = e.Error()
	default:
		return nil, n.info, err
	}
	if si.Read == 0 && n.info == r.info {
		return r, r.info, nil // nothing new: r stays the newest snapshot
	}
	return n, n.info, nil
}

// blockCursor reads and decodes blocks for one query, reusing the open
// segment handle and its buffers from block to block.
type blockCursor struct {
	r        *Reader
	st       *QueryStats
	f        *os.File
	seg      int
	blockBuf []byte
	index    []IndexEntry
	z        decoder
}

func (c *blockCursor) close() {
	if c.f != nil {
		c.f.Close()
	}
}

// events reads block rb from its segment, re-verifies and decodes it, and
// feeds fn its events of templates ids — every event when ids is empty.
func (c *blockCursor) events(rb readBlock, ids []int32, fn func(Event) error) error {
	path := c.r.scan.Paths[rb.seg]
	if c.f == nil || c.seg != rb.seg {
		c.close()
		var err error
		if c.f, err = os.Open(path); err != nil {
			return fmt.Errorf("eventstore: open segment: %w", err)
		}
		c.seg = rb.seg
	}
	if cap(c.blockBuf) < int(rb.meta.size) {
		c.blockBuf = make([]byte, rb.meta.size)
	}
	c.blockBuf = c.blockBuf[:rb.meta.size]
	if _, err := c.f.ReadAt(c.blockBuf, rb.meta.off); err != nil {
		return fmt.Errorf("eventstore: read block: %w", err)
	}
	v := blockView{index: c.index[:0]}
	var err error
	if v.meta, v.body, err = scanBlock(c.blockBuf, &v.index); err != nil {
		return spec.At(err, path, rb.meta.off)
	}
	c.index = v.index
	c.st.Decompressed++
	c.st.BytesDecompressed += int64(v.meta.rawLen)
	c.st.Events += int64(v.meta.count)
	c.r.tm.blocksRead.Inc()
	c.r.tm.bytesInfl.Add(uint64(v.meta.rawLen))
	return spec.At(c.z.decode(v, ids, fn), path, rb.meta.off)
}

// Scan streams every selected event, in store order, to fn. Blocks that
// cannot hold a selected event — time range disjoint, footer index
// missing every requested template — are skipped without being read or
// decoded. fn's error stops the scan and is returned.
func (r *Reader) Scan(q Query, fn func(Event) error) (QueryStats, error) {
	start := r.now()
	defer func() { r.tm.querySec.Observe(r.now().Sub(start).Seconds()) }()
	r.tm.queries.Inc()
	q = q.normalized()
	from, to := q.timeBounds()
	var st QueryStats
	st.Blocks = len(r.blocks)
	cur := blockCursor{r: r, st: &st}
	defer cur.close()
	yielded := 0
	for _, rb := range r.blocks {
		if r.skip(rb, q, from, to) {
			st.Skipped++
			r.tm.skipped.Inc()
			continue
		}
		err := cur.events(rb, q.TemplateIDs, func(ev Event) error {
			if !q.matches(ev, from, to) {
				return nil
			}
			st.Selected++
			if err := fn(ev); err != nil {
				return err
			}
			yielded++
			if q.Limit > 0 && yielded >= q.Limit {
				return errLimitReached
			}
			return nil
		})
		if err == errLimitReached {
			return st, nil
		}
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// errLimitReached is Scan's internal early-exit sentinel.
var errLimitReached = fmt.Errorf("eventstore: limit reached")

// skip reports whether a block cannot hold any selected event, on
// metadata alone.
func (r *Reader) skip(rb readBlock, q Query, from, to int64) bool {
	if rb.meta.maxTime < from || rb.meta.minTime >= to {
		return true
	}
	if len(q.TemplateIDs) > 0 {
		for _, id := range q.TemplateIDs {
			if indexCount(rb.index, id) > 0 {
				return false
			}
		}
		return true
	}
	if !q.IncludeUnmatched && rb.meta.matched == 0 {
		return true
	}
	return false
}

// covered reports whether the block's whole time span is inside the
// query's range — when it is, the footer index answers counting queries
// exactly, with no decompression.
func covered(m blockMeta, from, to int64) bool {
	return from <= m.minTime && m.maxTime < to
}

// indexCount looks one template up in a block's inverted index.
func indexCount(index []IndexEntry, id int32) int64 {
	lo, hi := 0, len(index)
	for lo < hi {
		mid := (lo + hi) / 2
		if index[mid].Template < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(index) && index[lo].Template == id {
		return index[lo].Count
	}
	return 0
}

// Count returns how many events satisfy the query. Blocks fully inside
// the time range are answered from the footer index alone; only blocks
// the range cuts through are decoded.
func (r *Reader) Count(q Query) (int64, QueryStats, error) {
	st, err := r.tally(q, &tally{})
	return st.Selected, st, err
}

// TemplateCounts returns per-template selected-event counts — the
// conformance bridge: over a store written by one engine run,
// TemplateCounts of the unbounded query equals the engine's per-template
// counts exactly. Unmatched events (when included) count under key −1; a
// template with no selected event has no key.
func (r *Reader) TemplateCounts(q Query) (map[int32]int64, QueryStats, error) {
	t := newTally()
	st, err := r.tally(q, t)
	return t.counts(), st, err
}

// tally is one counting query's result, which Count, TemplateCounts and top
// all fill: the total and, unless sparse is nil, the per-template counts —
// ids below 2^16 in dense, so that a hostile id cannot size it, −1 and the
// rare larger id in sparse. Like the footer index, it keeps only counts
// above zero.
type tally struct {
	total  int64
	dense  []int64
	sparse map[int32]int64
}

// newTally returns a tally that keeps per-template counts.
func newTally() *tally { return &tally{sparse: make(map[int32]int64)} }

// add counts n selected events of template id.
func (t *tally) add(id int32, n int64) {
	t.total += n
	switch {
	case t.sparse == nil || n <= 0:
	case uint32(id) < uint32(len(t.dense)):
		t.dense[id] += n
	case uint32(id) < 1<<16:
		t.dense = append(t.dense, make([]int64, int(id)+1-len(t.dense))...)
		t.dense[id] += n
	default:
		t.sparse[id] += n
	}
}

// each hands fn every template with selected events, dense ids ascending
// first, then the map's in no order.
func (t *tally) each(fn func(id int32, c int64)) {
	for id, c := range t.dense {
		if c != 0 {
			fn(int32(id), c)
		}
	}
	for id, c := range t.sparse {
		fn(id, c)
	}
}

// counts returns the per-template counts as a map.
func (t *tally) counts() map[int32]int64 {
	m := make(map[int32]int64, len(t.sparse))
	t.each(func(id int32, c int64) { m[id] = c })
	return m
}

// top returns the n templates with the most selected events, most first
// and ties by ascending id, named from names. A heap of at most n rows
// whose root is the worst row kept selects them, so T templates cost
// T log n and only min(n, T) rows are allocated.
func (t *tally) top(n int, names map[int32]string) []TemplateCount {
	if n <= 0 {
		return nil
	}
	k := 0
	t.each(func(int32, int64) { k++ })
	h := make([]TemplateCount, 0, min(n, k))
	t.each(func(id int32, c int64) {
		row := TemplateCount{Template: id, Count: c}
		if len(h) < n {
			h = append(h, row)
			for i := len(h) - 1; i > 0 && ranksBelow(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
			return
		}
		if !ranksBelow(h[0], row) {
			return
		}
		h[0] = row
		for i, m := 0, 0; ; i = m {
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(h) && ranksBelow(h[c], h[m]) {
					m = c
				}
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
		}
	})
	slices.SortFunc(h, func(a, b TemplateCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Template, b.Template))
	})
	for i := range h {
		h[i].Name = names[h[i].Template]
	}
	return h
}

// ranksBelow reports whether top lists a after b: fewer events, or as many
// and a larger id.
func ranksBelow(a, b TemplateCount) bool {
	return a.Count < b.Count || a.Count == b.Count && a.Template > b.Template
}

// tally runs a counting query into t; st.Selected is t.total.
func (r *Reader) tally(q Query, t *tally) (st QueryStats, err error) {
	start := r.now()
	defer func() { r.tm.querySec.Observe(r.now().Sub(start).Seconds()) }()
	r.tm.queries.Inc()
	q = q.normalized()
	from, to := q.timeBounds()
	st.Blocks = len(r.blocks)
	defer func() { st.Selected = t.total }()
	cur := blockCursor{r: r, st: &st}
	defer cur.close()
	for _, rb := range r.blocks {
		if covered(rb.meta, from, to) && len(q.TemplateIDs) > 0 {
			// One probe per id both answers the block and decides its skip.
			hit := false
			for _, id := range q.TemplateIDs {
				c := indexCount(rb.index, id)
				hit = hit || c > 0
				t.add(id, c)
			}
			if hit {
				st.IndexOnly++
			} else {
				st.Skipped++
				r.tm.skipped.Inc()
			}
			continue
		}
		if r.skip(rb, q, from, to) {
			st.Skipped++
			r.tm.skipped.Inc()
			continue
		}
		if covered(rb.meta, from, to) {
			// The footer index is exact for matched+late events; the
			// unmatched remainder is count−matched. No bytes touched.
			st.IndexOnly++
			for _, e := range rb.index {
				t.add(e.Template, e.Count)
			}
			if q.IncludeUnmatched {
				t.add(-1, int64(rb.meta.count)-int64(rb.meta.matched))
			}
			continue
		}
		if err = cur.events(rb, q.TemplateIDs, func(ev Event) error {
			if q.matches(ev, from, to) {
				t.add(ev.Template, 1)
			}
			return nil
		}); err != nil {
			return st, err
		}
	}
	return st, nil
}
