// Package eventstore is the queryable persistence layer for parsed
// events — the substrate log mining runs on. The stream engine counts
// template hits but discards the per-line parse stream; this package keeps
// it: every matched/unmatched decision is appended as an Event into an
// append-only sequence of segment files made of fixed-size compressed
// blocks, each finalized with a footer carrying min/max timestamp, min/max
// sequence, a per-block template→count inverted index, and a SHA-256
// checksum. A Reader answers
// template/time-range queries by consulting block metadata first, so a
// selective query skips (and never decodes) the blocks that cannot
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
	"math/bits"
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
//	magic   "EVB3" (4 bytes) — "EVB2" or "EVB1" in stores written before
//	                           this layout; see below
//	bodyLen (4 bytes, little-endian) — body byte count
//	rawLen  (4 bytes, little-endian) — equal to bodyLen ("EVB2", "EVB1":
//	                                   the inflated body's byte count)
//	ftrLen  (4 bytes, little-endian) — footer byte count
//	body    (bodyLen bytes)          — see below
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
// Body, "EVB3" — columnar, because a reader wants one field (which
// template) of every event and the other four of almost none; stored as it
// is, with no compression stage:
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
//	template column  count canonical Huffman codes, MSB-first, zero-padded
//	                 to a byte — a code the reader rebuilds from the footer
//	                 (huffman.go), so none is stored; empty when the block
//	                 holds one template
//
// Each run column's lengths sum to the footer's count, which is also what
// delimits it; the template column ends the body. A full read checks that
// the column decodes to exactly count codes ending in its last byte, and
// that their histogram is the footer index's.
//
// "EVB2" blocks — still read, never written — store the same body as one
// flate stream, with a template column of count × uvarint tmpl+1 (0 encodes
// the unmatched sentinel Template == −1). "EVB1" blocks, the layout before
// that, also differ in the footer, which carries a 256-bit template bloom
// filter between matched and indexN (skipped: the inverted index beside it
// is exact), and their inflated body is count interleaved records
//
//	uvarint seqDelta, varint timeDelta, uvarint tmpl+1, kind (1 byte),
//	uvarint rawOff
//
// A segment may hold blocks of all three layouts; everything that stays in
// the footer (Open, AlignTo, Refresh, count and top queries) cannot tell.
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
	// blockMagic is "EVB" and the layout's version digit: 3 is written,
	// 1 and 2 are read.
	blockMagic = "EVB3"
	// blockHeaderSize is magic(4) + bodyLen(4) + rawLen(4) + ftrLen(4).
	blockHeaderSize = 16
	checksumSize    = sha256.Size
	// footerFixedSize is everything before the variable inverted index:
	// minSeq(8)+maxSeq(8)+minTime(8)+maxTime(8)+count(4)+matched(4)+
	// indexN(4); a v1 footer has footerV1Skipped more bytes before indexN.
	footerFixedSize = 44
	footerV1Skipped = 32
)

// The run columns of a v2 or v3 body, in body order.
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
	version          byte // the magic's layout digit
}

// IndexEntry is one inverted-index row: how many events of one template a
// block holds (matched and late-matched kinds together).
type IndexEntry struct {
	Template int32
	Count    int64
}

// decodeEvents walks a v2 or v3 block body (v2: inflated; a v1 body
// arrives rewritten as v2, decoder.columns), calling fn for each event whose
// template is one of ids — for every event when ids is empty. meta supplies
// the footer's claims, which the walk verifies: count, seq bounds and
// monotonicity. code is a v3 block's template code, built from its footer.
// Returns a *CorruptError (with empty Path/Offset for the caller to fill) on
// any structural violation, or fn's error, which stops the walk where it
// is.
func decodeEvents(raw []byte, meta blockMeta, code *huffman, ids []int32, fn func(Event) error) error {
	cols, tmpl, err := splitColumns(raw, meta)
	if err != nil {
		return err
	}
	// The filter runs on the template column: only a hit pays for seeking
	// the four run cursors to its position.
	hit := func(p uint32, t int32) error {
		for c := range cols {
			cols[c].seek(p)
		}
		return fn(Event{
			Seq: cols[colSeq].sum(p), Time: cols[colTime].sum(p), Template: t,
			Kind: Kind(cols[colKind].v), RawOff: cols[colOff].v,
		})
	}
	if meta.version == 3 {
		for s, t := range code.syms {
			code.want[s] = fn != nil && wanted(ids, t)
		}
		return code.walk(tmpl, meta.count, hit)
	}
	for p := uint32(0); p < meta.count; p++ {
		v, k := binary.Uvarint(tmpl)
		if k <= 0 || v > 1<<31 {
			return &seglog.CorruptError{Reason: "bad event template"}
		}
		tmpl = tmpl[k:]
		if t := int32(v) - 1; fn != nil && wanted(ids, t) {
			if err := hit(p, t); err != nil {
				return err
			}
		}
	}
	if len(tmpl) != 0 {
		return &seglog.CorruptError{Reason: "more events than the footer claims"}
	}
	return nil
}

// wanted is decodeEvents' template filter, per event of a v2 body, per
// symbol of a v3 one. (slices.Contains costs the v2 walk a call per event:
// its generic body is not inlined.)
func wanted(ids []int32, tmpl int32) bool {
	for _, id := range ids {
		if id == tmpl {
			return true
		}
	}
	return len(ids) == 0
}

// runCursor walks one run column of a v2 or v3 body that splitColumns has
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

// splitColumns validates the four run columns of a v2 or v3 body once — every
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

// decodeFooter parses a block footer of the given layout version. idx,
// when non-nil, receives the inverted index (appended).
func decodeFooter(ftr []byte, version byte, idx *[]IndexEntry) (blockMeta, error) {
	m := blockMeta{version: version}
	fixed := footerFixedSize
	if version == 1 {
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
	// prefix of any magic is torn, anything else is corruption.
	n := min(len(data), len(blockMagic))
	if string(data[:min(n, 3)]) != blockMagic[:min(n, 3)] || n == 4 && (data[3] < '1' || data[3] > '3') {
		return meta, nil, &seglog.CorruptError{Reason: "bad block magic"}
	}
	if len(data) < blockHeaderSize {
		return meta, nil, &seglog.TornTailError{}
	}
	version := data[3] - '0'
	bodyLen := binary.LittleEndian.Uint32(data[4:8])
	rawLen := binary.LittleEndian.Uint32(data[8:12])
	ftrLen := binary.LittleEndian.Uint32(data[12:16])
	if bodyLen > MaxBlockBytes || rawLen > MaxBlockBytes || version == 3 && rawLen != bodyLen {
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
	meta, err = decodeFooter(data[ftrStart:sumStart], version, idx)
	if err != nil {
		return meta, nil, err
	}
	// A v1 or v2 body bounds count at a byte per event; a v3 body may
	// spend less, so the bound is stated.
	if meta.count > MaxBlockBytes {
		return meta, nil, &seglog.CorruptError{Reason: "implausible block event count"}
	}
	meta.rawLen = rawLen
	meta.size = int64(total)
	return meta, data[blockHeaderSize:ftrStart], nil
}

// decoder turns verified blocks into events, reusing its buffers from block
// to block: a v3 block's template code; a v1 or v2 block's flate reader
// (≈ 40 KB of state) and inflated body, raw; and a v1 body's rows
// rewritten as columns.
type decoder struct {
	code huffman
	fr   io.ReadCloser
	raw  []byte
	cols [numCols]runColumn
	tmpl []byte
	body []byte
}

// decode feeds fn the events of block v whose templates are among ids, as
// decodeEvents does; a v3 block needs v.index.
func (z *decoder) decode(v blockView, ids []int32, fn func(Event) error) error {
	if v.meta.version == 3 {
		z.code.alphabet(v.index, v.meta.count-v.meta.matched)
		z.code.build()
		return decodeEvents(v.body, v.meta, &z.code, ids, fn)
	}
	if err := z.inflate(v.body, v.meta.rawLen); err != nil {
		return err
	}
	raw := z.raw
	if v.meta.version == 1 {
		var err error
		if raw, err = z.columns(raw); err != nil {
			return err
		}
	}
	return decodeEvents(raw, v.meta, nil, ids, fn)
}

// columns rewrites a v1 body, rows of (uvarint seqDelta, varint timeDelta,
// uvarint tmpl+1, kind byte, uvarint rawOff), as the v2 body of the same
// events, so that one walk reads every layout and checks what the columns
// hold. A row that does not parse is corruption.
func (z *decoder) columns(rows []byte) ([]byte, error) {
	for c := range z.cols {
		z.cols[c] = runColumn{buf: z.cols[c].buf[:0]}
	}
	z.tmpl = z.tmpl[:0]
	for len(rows) > 0 {
		seqDelta, k := binary.Uvarint(rows)
		timeDelta, j := binary.Varint(rows[max(k, 0):])
		if k <= 0 || j <= 0 {
			return nil, &seglog.CorruptError{Reason: "bad event record"}
		}
		k += j
		tmpl, j := binary.Uvarint(rows[k:])
		if j <= 0 || k+j == len(rows) { // the kind byte follows
			return nil, &seglog.CorruptError{Reason: "bad event record"}
		}
		k += j
		rawOff, j := binary.Uvarint(rows[k+1:])
		if j <= 0 {
			return nil, &seglog.CorruptError{Reason: "bad event record"}
		}
		z.cols[colSeq].add(int64(seqDelta))
		z.cols[colTime].add(timeDelta)
		z.cols[colKind].add(int64(rows[k]))
		z.cols[colOff].add(int64(rawOff))
		z.tmpl = binary.AppendUvarint(z.tmpl, tmpl)
		rows = rows[k+1+j:]
	}
	z.body = z.body[:0]
	for c := range z.cols {
		z.cols[c].flush()
		z.body = append(z.body, z.cols[c].buf...)
	}
	z.body = append(z.body, z.tmpl...)
	return z.body, nil
}

// inflate decompresses a v1 or v2 block body into z.raw — valid until the
// next call — and verifies the advertised raw length.
func (z *decoder) inflate(body []byte, rawLen uint32) error {
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
// still-encoded body (a view into the segment image) and, when asked for,
// the footer's inverted index.
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
// offset and view — but never decodes a body.
func scanSegmentMeta(data []byte, wantIndex bool, each func(off int64, fr seglog.Frame, v blockView) error) (SegmentInfo, error) {
	info, err := seglog.Walk(&spec, data, verifyBlock(wantIndex), each)
	return SegmentInfo{
		FirstSeq: int64(info.FirstSeq), LastSeq: int64(info.LastSeq),
		Blocks: info.Frames, Events: info.Units, Good: info.Good,
	}, err
}

// DecodeSegment is the full verification of one segment image: the
// metadata walk plus, per block, the body's decoding and event-structure
// check, calling fn (when non-nil) for each event in order. It never
// panics on malformed input: the returned error is nil for a clean
// segment, a *seglog.TornTailError when the image ends mid-block (a crash
// signature — the prefix in SegmentInfo.Good is trustworthy), a
// *seglog.CorruptError when bytes present fail verification, or fn's own
// error, which stops the walk. Path fields of returned errors are empty.
// Exported for the fuzz target and tests.
func DecodeSegment(data []byte, fn func(Event) error) (SegmentInfo, error) {
	var z decoder
	return scanSegmentMeta(data, true, func(_ int64, _ seglog.Frame, v blockView) error {
		return z.decode(v, nil, fn)
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
	prev             Event // running delta base
	count            uint32
	match            uint32
	minSeq, maxSeq   int64
	minTime, maxTime int64

	// The template column: each event's slot, a template's first-seen
	// rank in the block (slot 0 is the unmatched sentinel), and per slot
	// its template id and event count.
	tmpls   []uint32
	tmplLen int // the column's size as v2's uvarints
	slotOf  map[int32]uint32
	ids     []int32
	counts  []uint32
	index   []IndexEntry // seal's footer index
	symOf   []uint32     // and slot → code symbol
	code    huffman
}

func (b *blockBuilder) reset() {
	for c := range b.cols {
		b.cols[c] = runColumn{buf: b.cols[c].buf[:0]}
	}
	b.tmpls, b.tmplLen = b.tmpls[:0], 0
	b.ids, b.counts = append(b.ids[:0], -1), append(b.counts[:0], 0)
	b.prev = Event{}
	b.count, b.match = 0, 0 // add starts the seq and time bounds over
	if b.slotOf == nil {
		b.slotOf = make(map[int32]uint32)
	} else {
		clear(b.slotOf)
	}
}

// rawLen is the size the body would have as v2's, so far; seal adds at
// most the four open runs. It sets where blocks end, so it stays v2's: a
// v3 body is smaller, and block boundaries do not move with the layout.
func (b *blockBuilder) rawLen() int {
	n := b.tmplLen
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
	b.tmplLen += (bits.Len32(uint32(ev.Template)+1|1) + 6) / 7 // −1 → 0, MaxInt32 → 1<<31
	b.prev = ev
	b.count++
	slot := uint32(0)
	if ev.Template >= 0 {
		b.match++
		var ok bool
		if slot, ok = b.slotOf[ev.Template]; !ok {
			slot = uint32(len(b.ids))
			b.slotOf[ev.Template] = slot
			b.ids, b.counts = append(b.ids, ev.Template), append(b.counts, 0)
		}
	}
	b.counts[slot]++
	b.tmpls = append(b.tmpls, slot)
}

// seal encodes the accumulated events and appends the complete block
// image (header, body, footer, checksum) to dst, returning the extended
// slice and the block's meta. The builder must hold at least one event.
func (b *blockBuilder) seal(dst []byte) ([]byte, blockMeta) {
	// The code's alphabet is the footer's: ids ascending, then −1.
	h := &b.code
	h.order = h.order[:0]
	for slot, id := range b.ids[1:] {
		h.order = append(h.order, uint64(id)<<32|uint64(slot+1))
	}
	slices.Sort(h.order)
	b.index, b.symOf = b.index[:0], slices.Grow(b.symOf[:0], len(b.ids))[:len(b.ids)]
	for s, o := range h.order {
		b.index = append(b.index, IndexEntry{Template: int32(o >> 32), Count: int64(b.counts[uint32(o)])})
		b.symOf[uint32(o)] = uint32(s)
	}
	b.symOf[0] = uint32(len(b.index)) // −1's symbol, when it has events
	h.alphabet(b.index, b.counts[0])
	h.build()

	start := len(dst)
	dst = append(dst, blockMagic...)
	// bodyLen, rawLen (equal in v3) and ftrLen are not known until the
	// body and footer are written; reserve the slots and patch them after.
	dst = append(dst, make([]byte, 12)...)
	bodyStart := len(dst)
	for c := range b.cols {
		b.cols[c].flush()
		dst = append(dst, b.cols[c].buf...)
	}
	dst = h.appendColumn(dst, b.tmpls, b.symOf)
	bodyLen := uint32(len(dst) - bodyStart)

	ftrStart := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.minSeq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.maxSeq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.minTime))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.maxTime))
	dst = binary.LittleEndian.AppendUint32(dst, b.count)
	dst = binary.LittleEndian.AppendUint32(dst, b.match)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.index)))
	for _, e := range b.index {
		dst = binary.AppendUvarint(dst, uint64(e.Template))
		dst = binary.AppendUvarint(dst, uint64(e.Count))
	}
	binary.LittleEndian.PutUint32(dst[start+4:], bodyLen)
	binary.LittleEndian.PutUint32(dst[start+8:], bodyLen)
	binary.LittleEndian.PutUint32(dst[start+12:], uint32(len(dst)-ftrStart))

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
		rawLen:  bodyLen,
		version: 3,
	}
	return dst, meta
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
	dst, _ = b.seal(dst)
	return dst, nil
}
