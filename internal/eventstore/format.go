// Package eventstore is the queryable persistence layer for parsed
// events — the substrate log mining runs on. The stream engine counts
// template hits but discards the per-line parse stream; this package keeps
// it: every matched/unmatched decision is appended as an Event into an
// append-only sequence of segment files made of fixed-size compressed
// blocks, each finalized with a footer carrying min/max timestamp, min/max
// sequence, a per-block template→count inverted index, and a SHA-256
// checksum. A Reader answers
// template/time-range queries by consulting block metadata first, so a
// selective query skips (and never decompresses) the blocks that cannot
// match.
//
// Crash discipline is internal/seglog's, shared with the WAL: a block cut
// short by a crash is a torn tail (truncated away on open, the finalized
// prefix is trustworthy), while bytes that are present but fail
// verification are corruption (discarded from that point on). Blocks are
// finalized and fsynced together with the engine's checkpoints, so a block
// never spans a successful-checkpoint boundary — on restart the store is
// aligned to the restored offset and replay refills exactly what was
// dropped.
package eventstore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"logparse/internal/seglog"
)

// Segment file layout (version 1):
//
//	logevents-segment v1\n
//	firstSeq (8 bytes, little-endian) — the first block's minimum seq
//	block*
//
// Block layout:
//
//	magic   "EVB2" (4 bytes) — "EVB1" in stores written before the
//	                           columnar body; see below
//	bodyLen (4 bytes, little-endian) — compressed body byte count
//	rawLen  (4 bytes, little-endian) — uncompressed body byte count
//	ftrLen  (4 bytes, little-endian) — footer byte count
//	body    (bodyLen bytes)          — one flate stream over the raw body
//	footer  (ftrLen bytes)           — see below
//	sum     (32 bytes)               — SHA-256 over header+body+footer
//
// Footer layout:
//
//	minSeq, maxSeq   (8+8 bytes, little-endian)
//	minTime, maxTime (8+8 bytes, little-endian, unix nanoseconds)
//	count            (4 bytes) — events in the block
//	matched          (4 bytes) — events with Template ≥ 0
//	indexN           (4 bytes) — inverted-index entry count
//	entries          indexN × (uvarint templateID, uvarint count),
//	                 templateID strictly ascending
//
// Raw body, "EVB2" — columnar, because a reader wants one field (which
// template) of every event and the other four of almost none:
//
//	seq column    runs of (uvarint runLen, varint seqDelta) — Seq minus
//	              the previous event's Seq, the first against zero (≥ 0:
//	              seqs are non-decreasing; late re-matches reuse the
//	              current offset)
//	time column   runs of (uvarint runLen, varint timeDelta), likewise
//	              (any sign; int64 arithmetic wraps, on both sides)
//	kind column   runs of (uvarint runLen, varint kind)
//	offset column runs of (uvarint runLen, varint rawOff) — optional
//	              raw-line byte offset, 0 when unused
//	template column  count × uvarint tmpl+1 — 0 encodes the unmatched
//	                 sentinel Template == −1
//
// Each run column's lengths sum to the footer's count, which is also what
// delimits it; the template column ends the body.
//
// "EVB1" blocks — the only layout before this one, still read, never
// written — differ in two places: the footer carries a 256-bit template
// bloom filter between matched and indexN (skipped: the inverted index
// beside it is exact), and the raw body is count interleaved records
//
//	uvarint seqDelta, varint timeDelta, uvarint tmpl+1, kind (1 byte),
//	uvarint rawOff
//
// A segment may hold blocks of both layouts; everything that stays in the
// footer (Open, AlignTo, Refresh, count and top queries) cannot tell.
//
// The segment header, file naming, torn-tail vs corruption taxonomy and
// crash repair are internal/seglog's; this file holds the block codec it
// verifies frames with.

// spec is the store's segment-log identity: non-decreasing seqs ≥ 0, a
// segment's first block starting exactly at its header's firstSeq.
var spec = seglog.Spec{Name: "eventstore", Prefix: "evt", Magic: segMagic}

const (
	segMagic = "logevents-segment v1\n"
	// segHeaderSize is the magic line plus the 8-byte firstSeq.
	segHeaderSize = len(segMagic) + 8
	blockMagic    = "EVB2"
	blockMagicV1  = "EVB1"
	// blockHeaderSize is magic(4) + bodyLen(4) + rawLen(4) + ftrLen(4).
	blockHeaderSize = 16
	checksumSize    = sha256.Size
	// footerFixedSize is everything before the variable inverted index:
	// minSeq(8)+maxSeq(8)+minTime(8)+maxTime(8)+count(4)+matched(4)+
	// indexN(4); a v1 footer has footerV1Skipped more bytes before indexN.
	footerFixedSize = 44
	footerV1Skipped = 32
)

// The run columns of a v2 body, in body order.
const (
	colSeq = iota
	colTime
	colKind
	colOff
	numCols
)

// MaxBlockBytes bounds one block's raw (uncompressed) body — a
// plausibility ceiling far above any configured block size, so a corrupted
// length field is rejected instead of driving a giant allocation.
const MaxBlockBytes = 64 << 20

// maxFooterBytes bounds the variable-length footer the same way.
const maxFooterBytes = 8 << 20

// Kind says how an event's line met its template.
type Kind uint8

const (
	// KindMatched is a line covered by a known template at process time.
	KindMatched Kind = iota
	// KindUnmatched is a line no template covered; it entered the retrain
	// buffer. Template is −1.
	KindUnmatched
	// KindLateMatched is a buffered unmatched line covered after a
	// retrain. Seq is the offset of the line whose processing triggered
	// the retrain (the buffer holds no per-line numbers), so seqs stay
	// non-decreasing.
	KindLateMatched

	kindLimit
)

// String renders the kind name.
func (k Kind) String() string {
	switch k {
	case KindMatched:
		return "matched"
	case KindUnmatched:
		return "unmatched"
	case KindLateMatched:
		return "late"
	default:
		return "unknown"
	}
}

// Event is one parsed-event record: the engine's per-line decision.
type Event struct {
	// Seq is the stream line number the decision belongs to (non-
	// decreasing across a store; KindLateMatched events reuse the current
	// offset).
	Seq int64
	// Time is the instant the engine's consumer dequeued the batch (at most
	// 64 lines) the line arrived in, in unix nanoseconds — when the service
	// handled the line, never the log line's own timestamp. Events of one
	// batch share it, so ties are the common case: order is Seq, and times
	// do not decrease with Seq unless the wall clock steps back.
	Time int64
	// Template is the engine's template index, −1 for unmatched.
	Template int32
	// Kind is the match outcome.
	Kind Kind
	// RawOff optionally points at the line's byte offset in a raw-line
	// archive; 0 when no archive is kept.
	RawOff int64
}

// check refuses, at the writer, what the decoder refuses at every later read.
func (ev Event) check() error {
	if ev.Template < -1 || ev.Kind >= kindLimit || ev.RawOff < 0 {
		return fmt.Errorf("eventstore: append of an event no reader accepts: %+v", ev)
	}
	return nil
}

// SegmentInfo summarizes the valid prefix of one decoded segment image.
type SegmentInfo struct {
	// FirstSeq is the header's first sequence number.
	FirstSeq int64
	// LastSeq is the last finalized block's maximum seq (0 when the
	// segment holds no finalized blocks).
	LastSeq int64
	// Blocks counts the finalized blocks; Events their events.
	Blocks int
	Events int64
	// Good is the byte length of the valid prefix: the header plus every
	// whole, verified block. Truncating the file to Good removes a torn
	// or corrupt tail without touching trustworthy data.
	Good int64
}

// SegmentHeader returns the encoded header of a segment whose first block
// starts at firstSeq. Exported for tests and fuzz seeds.
func SegmentHeader(firstSeq int64) []byte { return spec.Header(uint64(firstSeq)) }

// blockMeta is the decoded footer of one finalized block plus its position
// in the segment file.
type blockMeta struct {
	off  int64 // block start offset in the segment file
	size int64 // total encoded length (header+body+footer+sum)

	minSeq, maxSeq   int64
	minTime, maxTime int64
	count, matched   uint32
	rawLen           uint32
	v1               bool // the body is v1's rows, not columns
}

// IndexEntry is one inverted-index row: how many events of one template a
// block holds (matched and late-matched kinds together).
type IndexEntry struct {
	Template int32
	Count    int64
}

// decodeEvents walks a raw (decompressed) block body, calling fn for each
// event whose template is one of ids — for every event when ids is empty.
// meta supplies the footer's claims, which the walk verifies: count, seq
// bounds and monotonicity. Returns a *CorruptError (with empty Path/Offset
// for the caller to fill) on any structural violation, or fn's error, which
// stops the walk where it is.
func decodeEvents(raw []byte, meta blockMeta, ids []int32, fn func(Event) error) error {
	if meta.v1 {
		return decodeRows(raw, meta, ids, fn)
	}
	cols, tmpl, err := splitColumns(raw, meta)
	if err != nil {
		return err
	}
	// The filter runs here, on the template column: only a hit pays for
	// seeking the four run cursors to its position.
	for p := uint32(0); p < meta.count; p++ {
		// A one-byte code is the common case; sending it through
		// binary.Uvarint too costs the walk ≈ 8 % per block.
		code, k := uint64(0), 1
		if len(tmpl) > 0 && tmpl[0] < 0x80 {
			code = uint64(tmpl[0])
		} else if code, k = binary.Uvarint(tmpl); k == 0 {
			return &seglog.CorruptError{Reason: fmt.Sprintf("footer claims %d events, body holds %d", meta.count, p)}
		} else if k < 0 || code > 1<<31 {
			return &seglog.CorruptError{Reason: "bad event template"}
		}
		tmpl = tmpl[k:]
		ev := Event{Template: int32(code) - 1}
		if fn == nil || !wanted(ids, ev.Template) {
			continue
		}
		for c := range cols {
			cols[c].seek(p)
		}
		ev.Seq, ev.Time = cols[colSeq].sum(p), cols[colTime].sum(p)
		ev.Kind, ev.RawOff = Kind(cols[colKind].v), cols[colOff].v
		if err := fn(ev); err != nil {
			return err
		}
	}
	if len(tmpl) != 0 {
		return &seglog.CorruptError{Reason: "more events than the footer claims"}
	}
	return nil
}

// wanted is decodeEvents' template filter. (slices.Contains costs the column
// walk a call per event: its generic body is not inlined.)
func wanted(ids []int32, tmpl int32) bool {
	for _, id := range ids {
		if id == tmpl {
			return true
		}
	}
	return len(ids) == 0
}

// runCursor walks one run column of a v2 body that splitColumns has
// validated, forwards only.
type runCursor struct {
	col  []byte // the runs not yet read
	end  uint32 // events the runs read so far cover
	n    uint32 // the current run's length
	v    int64  // and its value
	base int64  // a delta column's running value before the current run
}

// readRun parses one (uvarint length, varint value) run off col.
func readRun(col []byte) (n uint64, v int64, rest []byte, ok bool) {
	n, k := binary.Uvarint(col)
	if k <= 0 {
		return 0, 0, nil, false
	}
	v, j := binary.Varint(col[k:])
	if j <= 0 {
		return 0, 0, nil, false
	}
	return n, v, col[k+j:], true
}

// seek moves to the run holding event p.
func (c *runCursor) seek(p uint32) {
	for p >= c.end && len(c.col) > 0 {
		c.base += int64(c.n) * c.v
		n, v, rest, _ := readRun(c.col)
		c.col, c.n, c.v = rest, uint32(n), v
		c.end += c.n
	}
}

// sum is a delta column's running value at event p of the current run.
func (c *runCursor) sum(p uint32) int64 {
	return c.base + int64(p-(c.end-c.n)+1)*c.v
}

// splitColumns validates the four run columns of a v2 body once — every
// column's run lengths sum to the footer's count; seq deltas are ≥ 0, start
// at minSeq and add up to maxSeq, which bounds every seq in between; kinds
// are known; offsets ≥ 0 — and returns a cursor at the start of each plus
// the template column behind them. No check multiplies before it has
// divided, so a crafted run cannot wrap one.
func splitColumns(raw []byte, meta blockMeta) (cols [numCols]runCursor, tmpl []byte, err error) {
	for c := range cols {
		start, seq := raw, int64(0)
		for covered := uint32(0); covered < meta.count; {
			n, v, rest, ok := readRun(raw)
			if !ok || n == 0 || n > uint64(meta.count-covered) {
				return cols, nil, &seglog.CorruptError{Reason: "bad event run"}
			}
			switch {
			case c == colSeq && v < 0:
				return cols, nil, &seglog.CorruptError{Reason: "bad event seq delta"}
			case c == colSeq && covered == 0 && v != meta.minSeq:
				return cols, nil, &seglog.CorruptError{Reason: "first event seq disagrees with footer"}
			case c == colSeq && v > 0 && n > uint64(meta.maxSeq-seq)/uint64(v):
				return cols, nil, &seglog.CorruptError{Reason: "event seq above the footer maximum"}
			case c == colKind && (v < 0 || v >= int64(kindLimit)):
				return cols, nil, &seglog.CorruptError{Reason: fmt.Sprintf("unknown event kind %d", v)}
			case c == colOff && v < 0:
				return cols, nil, &seglog.CorruptError{Reason: "bad event raw offset"}
			}
			if c == colSeq {
				seq += int64(n) * v // ≤ maxSeq, just checked
			}
			covered += uint32(n)
			raw = rest
		}
		if c == colSeq && seq != meta.maxSeq {
			return cols, nil, &seglog.CorruptError{Reason: "last event seq disagrees with footer"}
		}
		cols[c].col = start[:len(start)-len(raw)]
	}
	return cols, raw, nil
}

// decodeRows is decodeEvents for a v1 body: count interleaved records.
func decodeRows(raw []byte, meta blockMeta, ids []int32, fn func(Event) error) error {
	var prev Event
	var n uint32
	for len(raw) > 0 {
		seqDelta, k := binary.Uvarint(raw)
		if k <= 0 {
			return &seglog.CorruptError{Reason: "bad event seq delta"}
		}
		raw = raw[k:]
		timeDelta, k := binary.Varint(raw)
		if k <= 0 {
			return &seglog.CorruptError{Reason: "bad event time delta"}
		}
		raw = raw[k:]
		tmpl, k := binary.Uvarint(raw)
		if k <= 0 || tmpl > 1<<31 {
			return &seglog.CorruptError{Reason: "bad event template"}
		}
		raw = raw[k:]
		if len(raw) == 0 {
			return &seglog.CorruptError{Reason: "truncated event record"}
		}
		kind := Kind(raw[0])
		if kind >= kindLimit {
			return &seglog.CorruptError{Reason: fmt.Sprintf("unknown event kind %d", kind)}
		}
		raw = raw[1:]
		rawOff, k := binary.Uvarint(raw)
		if k <= 0 {
			return &seglog.CorruptError{Reason: "bad event raw offset"}
		}
		raw = raw[k:]
		ev := Event{
			Seq:      prev.Seq + int64(seqDelta),
			Time:     prev.Time + timeDelta,
			Template: int32(tmpl) - 1,
			Kind:     kind,
			RawOff:   int64(rawOff),
		}
		if n == 0 && ev.Seq != meta.minSeq {
			return &seglog.CorruptError{Reason: "first event seq disagrees with footer"}
		}
		n++
		if n > meta.count {
			return &seglog.CorruptError{Reason: "more events than the footer claims"}
		}
		if ev.Seq > meta.maxSeq {
			return &seglog.CorruptError{Reason: "event seq above the footer maximum"}
		}
		prev = ev
		if fn != nil && wanted(ids, ev.Template) {
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	if n != meta.count {
		return &seglog.CorruptError{Reason: fmt.Sprintf("footer claims %d events, body holds %d", meta.count, n)}
	}
	if n > 0 && prev.Seq != meta.maxSeq {
		return &seglog.CorruptError{Reason: "last event seq disagrees with footer"}
	}
	return nil
}

// decodeFooter parses a block footer, v1's or v2's. idx, when non-nil,
// receives the inverted index (appended).
func decodeFooter(ftr []byte, v1 bool, idx *[]IndexEntry) (blockMeta, error) {
	m := blockMeta{v1: v1}
	fixed := footerFixedSize
	if v1 {
		fixed += footerV1Skipped
	}
	if len(ftr) < fixed {
		return m, &seglog.CorruptError{Reason: "short block footer"}
	}
	m.minSeq = int64(binary.LittleEndian.Uint64(ftr[0:8]))
	m.maxSeq = int64(binary.LittleEndian.Uint64(ftr[8:16]))
	m.minTime = int64(binary.LittleEndian.Uint64(ftr[16:24]))
	m.maxTime = int64(binary.LittleEndian.Uint64(ftr[24:32]))
	m.count = binary.LittleEndian.Uint32(ftr[32:36])
	m.matched = binary.LittleEndian.Uint32(ftr[36:40])
	indexN := binary.LittleEndian.Uint32(ftr[fixed-4 : fixed])
	if m.count == 0 {
		return m, &seglog.CorruptError{Reason: "empty block"}
	}
	if m.minSeq > m.maxSeq || m.minTime > m.maxTime {
		return m, &seglog.CorruptError{Reason: "inverted footer bounds"}
	}
	if m.matched > m.count {
		return m, &seglog.CorruptError{Reason: "footer matched above count"}
	}
	rest := ftr[fixed:]
	prevID := int64(-1)
	var total int64
	for i := uint32(0); i < indexN; i++ {
		id, k := binary.Uvarint(rest)
		if k <= 0 || id > 1<<31-1 {
			return m, &seglog.CorruptError{Reason: "bad index template id"}
		}
		rest = rest[k:]
		cnt, k := binary.Uvarint(rest)
		if k <= 0 {
			return m, &seglog.CorruptError{Reason: "bad index count"}
		}
		rest = rest[k:]
		if int64(id) <= prevID {
			return m, &seglog.CorruptError{Reason: "index template ids not ascending"}
		}
		prevID = int64(id)
		total += int64(cnt)
		if idx != nil {
			*idx = append(*idx, IndexEntry{Template: int32(id), Count: int64(cnt)})
		}
	}
	if len(rest) != 0 {
		return m, &seglog.CorruptError{Reason: "trailing footer bytes"}
	}
	if total != int64(m.matched) {
		return m, &seglog.CorruptError{Reason: "index counts disagree with footer matched"}
	}
	return m, nil
}

// scanBlock verifies and parses the block at the start of data. body is
// the compressed body slice (a view into data); idx receives the inverted
// index when non-nil. Errors carry no Path and an offset relative to the
// block; whoever knows the block's position places them (seglog.Spec.At).
func scanBlock(data []byte, idx *[]IndexEntry) (meta blockMeta, body []byte, err error) {
	// Distinguish a header cut short mid-write from trailing garbage: a
	// prefix of either magic is torn, anything else is corruption.
	n := min(len(data), len(blockMagic))
	v1 := string(data[:n]) != blockMagic[:n]
	if v1 && string(data[:n]) != blockMagicV1[:n] {
		return meta, nil, &seglog.CorruptError{Reason: "bad block magic"}
	}
	if len(data) < blockHeaderSize {
		return meta, nil, &seglog.TornTailError{}
	}
	bodyLen := binary.LittleEndian.Uint32(data[4:8])
	rawLen := binary.LittleEndian.Uint32(data[8:12])
	ftrLen := binary.LittleEndian.Uint32(data[12:16])
	if bodyLen > MaxBlockBytes || rawLen > MaxBlockBytes {
		return meta, nil, &seglog.CorruptError{Reason: "implausible block body length"}
	}
	if ftrLen > maxFooterBytes {
		return meta, nil, &seglog.CorruptError{Reason: "implausible block footer length"}
	}
	ftrStart := blockHeaderSize + int(bodyLen)
	sumStart := ftrStart + int(ftrLen)
	total := sumStart + checksumSize
	if len(data) < total {
		return meta, nil, &seglog.TornTailError{}
	}
	sum := sha256.Sum256(data[:sumStart])
	if !bytes.Equal(sum[:], data[sumStart:total]) {
		return meta, nil, &seglog.CorruptError{Reason: "block checksum mismatch"}
	}
	meta, err = decodeFooter(data[ftrStart:sumStart], v1, idx)
	if err != nil {
		return meta, nil, err
	}
	meta.rawLen = rawLen
	meta.size = int64(total)
	return meta, data[blockHeaderSize:ftrStart], nil
}

// inflater decompresses block bodies, reusing one flate reader (≈ 40 KB of
// state) and one output buffer, raw, from block to block.
type inflater struct {
	fr  io.ReadCloser
	raw []byte
}

// inflate decompresses a block body into z.raw — valid until the next call —
// and verifies the advertised raw length.
func (z *inflater) inflate(body []byte, rawLen uint32) error {
	if cap(z.raw) < int(rawLen) {
		z.raw = make([]byte, rawLen)
	}
	z.raw = z.raw[:rawLen]
	if z.fr == nil {
		z.fr = flate.NewReader(bytes.NewReader(body))
	} else if err := z.fr.(flate.Resetter).Reset(bytes.NewReader(body), nil); err != nil {
		return err
	}
	n, err := io.ReadFull(z.fr, z.raw)
	if err != nil {
		return &seglog.CorruptError{Reason: fmt.Sprintf("block body inflate: %v (%d/%d bytes)", err, n, rawLen)}
	}
	// The body must end exactly at rawLen: trailing compressed data means
	// the header lied.
	var one [1]byte
	if m, _ := z.fr.Read(one[:]); m != 0 {
		return &seglog.CorruptError{Reason: "block body longer than advertised"}
	}
	return nil
}

// blockView is what verifying one block yields: its footer metadata, the
// still-compressed body (a view into the segment image) and, when asked
// for, the footer's inverted index.
type blockView struct {
	meta  blockMeta
	body  []byte
	index []IndexEntry
}

// verifyBlock returns the codec's verify-one-frame function for seglog,
// over scanBlock; wantIndex also decodes each footer's inverted index.
func verifyBlock(wantIndex bool) func([]byte) (seglog.Frame, blockView, error) {
	return func(data []byte) (seglog.Frame, blockView, error) {
		var v blockView
		var err error
		idx := &v.index
		if !wantIndex {
			idx = nil
		}
		v.meta, v.body, err = scanBlock(data, idx)
		return seglog.Frame{
			Size:   int(v.meta.size),
			MinSeq: uint64(v.meta.minSeq),
			MaxSeq: uint64(v.meta.maxSeq),
			Units:  int(v.meta.count),
		}, v, err
	}
}

// scanSegmentMeta walks one segment image verifying headers, checksums,
// footers and block ordering, and hands each (when non-nil) every block's
// offset and view — but never decompresses a body.
func scanSegmentMeta(data []byte, wantIndex bool, each func(off int64, fr seglog.Frame, v blockView) error) (SegmentInfo, error) {
	info, err := seglog.Walk(&spec, data, verifyBlock(wantIndex), each)
	return SegmentInfo{
		FirstSeq: int64(info.FirstSeq), LastSeq: int64(info.LastSeq),
		Blocks: info.Frames, Events: info.Units, Good: info.Good,
	}, err
}

// DecodeSegment is the full verification of one segment image: the
// metadata walk plus, per block, decompression and the event-structure
// check, calling fn (when non-nil) for each event in order. It never
// panics on malformed input: the returned error is nil for a clean
// segment, a *seglog.TornTailError when the image ends mid-block (a crash
// signature — the prefix in SegmentInfo.Good is trustworthy), a
// *seglog.CorruptError when bytes present fail verification, or fn's own
// error, which stops the walk. Path fields of returned errors are empty.
// Exported for the fuzz target and tests.
func DecodeSegment(data []byte, fn func(Event) error) (SegmentInfo, error) {
	var z inflater
	return scanSegmentMeta(data, false, func(_ int64, _ seglog.Frame, v blockView) error {
		if err := z.inflate(v.body, v.meta.rawLen); err != nil {
			return err
		}
		return decodeEvents(z.raw, v.meta, nil, fn)
	})
}

// runColumn run-length encodes one column of the block being built.
type runColumn struct {
	buf []byte // the closed runs
	n   uint32 // the open run's length, 0 before the first value
	v   int64  // and its value
}

func (c *runColumn) add(v int64) {
	if c.n > 0 && v == c.v {
		c.n++
		return
	}
	c.flush()
	c.n, c.v = 1, v
}

func (c *runColumn) flush() {
	if c.n > 0 {
		c.buf = binary.AppendVarint(binary.AppendUvarint(c.buf, uint64(c.n)), c.v)
		c.n = 0
	}
}

// blockBuilder accumulates one block's events and seals them into the
// encoded block image. All buffers are reused across blocks.
type blockBuilder struct {
	cols             [numCols]runColumn
	tmpl             []byte // the template column
	prev             Event  // running delta base
	count            uint32
	match            uint32
	minSeq, maxSeq   int64
	minTime, maxTime int64
	counts           map[int32]int64 // per-template matched+late counts

	fw     *flate.Writer
	cmp    bytes.Buffer
	idxIDs []int32 // seal's reusable sorted-id scratch
}

func (b *blockBuilder) reset() {
	for c := range b.cols {
		b.cols[c] = runColumn{buf: b.cols[c].buf[:0]}
	}
	b.tmpl = b.tmpl[:0]
	b.prev = Event{}
	b.count, b.match = 0, 0 // add starts the seq and time bounds over
	if b.counts == nil {
		b.counts = make(map[int32]int64)
	} else {
		clear(b.counts)
	}
}

// rawLen is the body's size so far; seal adds at most the four open runs.
func (b *blockBuilder) rawLen() int {
	n := len(b.tmpl)
	for c := range b.cols {
		n += len(b.cols[c].buf)
	}
	return n
}

// add appends one event. The caller has validated it (Event.check) and its
// seq ordering.
func (b *blockBuilder) add(ev Event) {
	if b.count == 0 {
		b.minSeq, b.minTime, b.maxTime = ev.Seq, ev.Time, ev.Time
	}
	b.maxSeq, b.minTime, b.maxTime = ev.Seq, min(b.minTime, ev.Time), max(b.maxTime, ev.Time)
	b.cols[colSeq].add(ev.Seq - b.prev.Seq)
	b.cols[colTime].add(ev.Time - b.prev.Time)
	b.cols[colKind].add(int64(ev.Kind))
	b.cols[colOff].add(ev.RawOff)
	b.tmpl = binary.AppendUvarint(b.tmpl, uint64(uint32(ev.Template)+1)) // −1 → 0, MaxInt32 → 1<<31
	b.prev = ev
	b.count++
	if ev.Template >= 0 {
		b.match++
		b.counts[ev.Template]++
	}
}

// seal compresses the accumulated events and appends the complete block
// image (header, body, footer, checksum) to dst, returning the extended
// slice and the block's meta. The builder must hold at least one event.
func (b *blockBuilder) seal(dst []byte) ([]byte, blockMeta, error) {
	b.cmp.Reset()
	if b.fw == nil {
		fw, err := flate.NewWriter(&b.cmp, flate.BestSpeed)
		if err != nil {
			return dst, blockMeta{}, err
		}
		b.fw = fw
	} else {
		b.fw.Reset(&b.cmp)
	}
	for c := range b.cols {
		b.cols[c].flush()
		if _, err := b.fw.Write(b.cols[c].buf); err != nil {
			return dst, blockMeta{}, err
		}
	}
	if _, err := b.fw.Write(b.tmpl); err != nil {
		return dst, blockMeta{}, err
	}
	if err := b.fw.Close(); err != nil {
		return dst, blockMeta{}, err
	}
	body := b.cmp.Bytes()

	start := len(dst)
	dst = append(dst, blockMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.rawLen()))
	b.idxIDs = b.idxIDs[:0]
	for id := range b.counts {
		b.idxIDs = append(b.idxIDs, id)
	}
	slices.Sort(b.idxIDs)
	// Footer length is not known until the varints are written; reserve
	// the slot and patch it after.
	ftrLenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = append(dst, body...)

	ftrStart := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.minSeq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.maxSeq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.minTime))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.maxTime))
	dst = binary.LittleEndian.AppendUint32(dst, b.count)
	dst = binary.LittleEndian.AppendUint32(dst, b.match)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.idxIDs)))
	for _, id := range b.idxIDs {
		dst = binary.AppendUvarint(dst, uint64(id))
		dst = binary.AppendUvarint(dst, uint64(b.counts[id]))
	}
	binary.LittleEndian.PutUint32(dst[ftrLenAt:], uint32(len(dst)-ftrStart))

	sum := sha256.Sum256(dst[start:])
	dst = append(dst, sum[:]...)

	meta := blockMeta{
		size:    int64(len(dst) - start),
		minSeq:  b.minSeq,
		maxSeq:  b.maxSeq,
		minTime: b.minTime,
		maxTime: b.maxTime,
		count:   b.count,
		matched: b.match,
		rawLen:  uint32(b.rawLen()),
	}
	return dst, meta, nil
}

// AppendBlock encodes events as one complete block image appended to dst —
// the test and fuzz-seed constructor for hand-built segments. Events must
// be non-empty and each one Append would take, seqs ≥ 0 and non-decreasing.
func AppendBlock(dst []byte, events []Event) ([]byte, error) {
	if len(events) == 0 {
		return dst, fmt.Errorf("eventstore: AppendBlock needs at least one event")
	}
	var b blockBuilder
	b.reset()
	for _, ev := range events {
		if ev.Seq < b.prev.Seq {
			return dst, fmt.Errorf("eventstore: AppendBlock events out of order")
		}
		if err := ev.check(); err != nil {
			return dst, err
		}
		b.add(ev)
	}
	dst, _, err := b.seal(dst)
	return dst, err
}
