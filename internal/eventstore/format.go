// Package eventstore is the queryable persistence layer for parsed
// events — the substrate log mining runs on. The stream engine counts
// template hits but discards the per-line parse stream; this package keeps
// it: every matched/unmatched decision is appended as an Event into an
// append-only sequence of segment files made of fixed-size compressed
// blocks, each finalized with a footer carrying min/max timestamp, min/max
// sequence, a template-ID bloom filter, a per-block template→count
// inverted index, and a SHA-256 checksum. A Reader answers
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
//	magic   "EVB1" (4 bytes)
//	bodyLen (4 bytes, little-endian) — compressed body byte count
//	rawLen  (4 bytes, little-endian) — uncompressed body byte count
//	ftrLen  (4 bytes, little-endian) — footer byte count
//	body    (bodyLen bytes)          — flate-compressed event records
//	footer  (ftrLen bytes)           — see below
//	sum     (32 bytes)               — SHA-256 over header+body+footer
//
// Footer layout:
//
//	minSeq, maxSeq   (8+8 bytes, little-endian)
//	minTime, maxTime (8+8 bytes, little-endian, unix nanoseconds)
//	count            (4 bytes) — events in the block
//	matched          (4 bytes) — events with Template ≥ 0
//	bloom            (32 bytes, 256 bits, k=3, over template IDs)
//	indexN           (4 bytes) — inverted-index entry count
//	entries          indexN × (uvarint templateID, uvarint count),
//	                 templateID strictly ascending
//
// Event record layout inside the body (delta-coded, running values start
// at zero at each block's beginning):
//
//	uvarint seqDelta  — Seq minus the previous event's Seq (≥ 0: seqs are
//	                    non-decreasing; late re-matches reuse the current
//	                    offset)
//	varint  timeDelta — Time minus the previous event's Time (zigzag)
//	uvarint tmpl+1    — 0 encodes the unmatched sentinel Template == −1
//	kind    (1 byte)
//	uvarint rawOff    — optional raw-line byte offset, 0 when unused
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
	blockMagic    = "EVB1"
	// blockHeaderSize is magic(4) + bodyLen(4) + rawLen(4) + ftrLen(4).
	blockHeaderSize = 16
	checksumSize    = sha256.Size
	// footerFixedSize is everything before the variable inverted index:
	// minSeq(8)+maxSeq(8)+minTime(8)+maxTime(8)+count(4)+matched(4)+
	// bloom(32)+indexN(4).
	footerFixedSize = 76
	// bloomBytes is the per-block template bloom filter width (256 bits).
	bloomBytes = 32
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
	bloom            [bloomBytes]byte
	rawLen           uint32
}

// IndexEntry is one inverted-index row: how many events of one template a
// block holds (matched and late-matched kinds together).
type IndexEntry struct {
	Template int32
	Count    int64
}

// splitmix64 is the bloom filter's mixer (the SplitMix64 finalizer).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bloomAdd sets template id's k=3 bits.
func bloomAdd(b *[bloomBytes]byte, id int32) {
	h := splitmix64(uint64(uint32(id)))
	for i := 0; i < 3; i++ {
		bit := uint(h) & 255
		b[bit>>3] |= 1 << (bit & 7)
		h >>= 16
	}
}

// bloomMaybe reports whether template id may be present (no false
// negatives).
func bloomMaybe(b *[bloomBytes]byte, id int32) bool {
	h := splitmix64(uint64(uint32(id)))
	for i := 0; i < 3; i++ {
		bit := uint(h) & 255
		if b[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
		h >>= 16
	}
	return true
}

// appendEventRecord delta-encodes one event against prev.
func appendEventRecord(buf []byte, prev, ev Event) []byte {
	buf = binary.AppendUvarint(buf, uint64(ev.Seq-prev.Seq))
	buf = binary.AppendVarint(buf, ev.Time-prev.Time)
	buf = binary.AppendUvarint(buf, uint64(ev.Template+1))
	buf = append(buf, byte(ev.Kind))
	return binary.AppendUvarint(buf, uint64(ev.RawOff))
}

// decodeEvents walks a raw (decompressed) block body, calling fn for each
// event. meta supplies the footer's claims, which the walk verifies:
// count, seq bounds and monotonicity. Returns a *CorruptError (with empty
// Path/Offset for the caller to fill) on any structural violation.
func decodeEvents(raw []byte, meta blockMeta, fn func(Event) error) error {
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
		if n == 0 {
			if ev.Seq != meta.minSeq {
				return &seglog.CorruptError{Reason: "first event seq disagrees with footer"}
			}
		}
		n++
		if n > meta.count {
			return &seglog.CorruptError{Reason: "more events than the footer claims"}
		}
		if ev.Seq > meta.maxSeq {
			return &seglog.CorruptError{Reason: "event seq above the footer maximum"}
		}
		prev = ev
		if fn != nil {
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

// decodeFooter parses a block footer. idx, when non-nil, receives the
// inverted index (appended).
func decodeFooter(ftr []byte, idx *[]IndexEntry) (blockMeta, error) {
	var m blockMeta
	if len(ftr) < footerFixedSize {
		return m, &seglog.CorruptError{Reason: "short block footer"}
	}
	m.minSeq = int64(binary.LittleEndian.Uint64(ftr[0:8]))
	m.maxSeq = int64(binary.LittleEndian.Uint64(ftr[8:16]))
	m.minTime = int64(binary.LittleEndian.Uint64(ftr[16:24]))
	m.maxTime = int64(binary.LittleEndian.Uint64(ftr[24:32]))
	m.count = binary.LittleEndian.Uint32(ftr[32:36])
	m.matched = binary.LittleEndian.Uint32(ftr[36:40])
	copy(m.bloom[:], ftr[40:40+bloomBytes])
	indexN := binary.LittleEndian.Uint32(ftr[72:76])
	if m.count == 0 {
		return m, &seglog.CorruptError{Reason: "empty block"}
	}
	if m.minSeq > m.maxSeq || m.minTime > m.maxTime {
		return m, &seglog.CorruptError{Reason: "inverted footer bounds"}
	}
	if m.matched > m.count {
		return m, &seglog.CorruptError{Reason: "footer matched above count"}
	}
	rest := ftr[footerFixedSize:]
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
	if len(data) < blockHeaderSize {
		// Distinguish a header cut short mid-write from trailing garbage:
		// a prefix of the magic is torn, anything else is corruption.
		n := min(len(data), len(blockMagic))
		if string(data[:n]) != blockMagic[:n] {
			return meta, nil, &seglog.CorruptError{Reason: "bad block magic"}
		}
		return meta, nil, &seglog.TornTailError{}
	}
	if string(data[:4]) != blockMagic {
		return meta, nil, &seglog.CorruptError{Reason: "bad block magic"}
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
	meta, err = decodeFooter(data[ftrStart:sumStart], idx)
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
		return decodeEvents(z.raw, v.meta, fn)
	})
}

// blockBuilder accumulates one block's events and seals them into the
// encoded block image. All buffers are reused across blocks.
type blockBuilder struct {
	raw              []byte // delta-encoded event records
	prev             Event  // running delta base
	count            uint32
	match            uint32
	minSeq, maxSeq   int64
	minTime, maxTime int64
	bloom            [bloomBytes]byte
	counts           map[int32]int64 // per-template matched+late counts

	fw     *flate.Writer
	cmp    bytes.Buffer
	idxIDs []int32 // seal's reusable sorted-id scratch
}

func (b *blockBuilder) reset() {
	b.raw = b.raw[:0]
	b.prev = Event{}
	b.count, b.match = 0, 0
	b.minSeq, b.maxSeq = 0, 0
	b.minTime, b.maxTime = 0, 0
	b.bloom = [bloomBytes]byte{}
	if b.counts == nil {
		b.counts = make(map[int32]int64)
	} else {
		clear(b.counts)
	}
}

// add appends one event. The caller has validated seq ordering.
func (b *blockBuilder) add(ev Event) {
	if b.count == 0 {
		b.minSeq, b.maxSeq = ev.Seq, ev.Seq
		b.minTime, b.maxTime = ev.Time, ev.Time
	} else {
		if ev.Time < b.minTime {
			b.minTime = ev.Time
		}
		if ev.Time > b.maxTime {
			b.maxTime = ev.Time
		}
		b.maxSeq = ev.Seq
	}
	b.raw = appendEventRecord(b.raw, b.prev, ev)
	b.prev = ev
	b.count++
	if ev.Template >= 0 {
		b.match++
		bloomAdd(&b.bloom, ev.Template)
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
	if _, err := b.fw.Write(b.raw); err != nil {
		return dst, blockMeta{}, err
	}
	if err := b.fw.Close(); err != nil {
		return dst, blockMeta{}, err
	}
	body := b.cmp.Bytes()

	start := len(dst)
	dst = append(dst, blockMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.raw)))
	ftrLen := footerFixedSize
	b.idxIDs = b.idxIDs[:0]
	for id := range b.counts {
		b.idxIDs = append(b.idxIDs, id)
	}
	sortInt32s(b.idxIDs)
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
	dst = append(dst, b.bloom[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.idxIDs)))
	for _, id := range b.idxIDs {
		dst = binary.AppendUvarint(dst, uint64(id))
		dst = binary.AppendUvarint(dst, uint64(b.counts[id]))
	}
	ftrLen = len(dst) - ftrStart
	binary.LittleEndian.PutUint32(dst[ftrLenAt:], uint32(ftrLen))

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
		bloom:   b.bloom,
		rawLen:  uint32(len(b.raw)),
	}
	return dst, meta, nil
}

// sortInt32s is a small insertion sort — per-block distinct-template
// counts are tiny, and avoiding sort.Slice keeps seal allocation-free.
func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AppendBlock encodes events as one complete block image appended to dst —
// the test and fuzz-seed constructor for hand-built segments. Events must
// be non-empty with non-decreasing seqs.
func AppendBlock(dst []byte, events []Event) ([]byte, error) {
	if len(events) == 0 {
		return dst, fmt.Errorf("eventstore: AppendBlock needs at least one event")
	}
	var b blockBuilder
	b.reset()
	for i, ev := range events {
		if i > 0 && ev.Seq < events[i-1].Seq {
			return dst, fmt.Errorf("eventstore: AppendBlock events out of order")
		}
		b.add(ev)
	}
	dst, _, err := b.seal(dst)
	return dst, err
}
