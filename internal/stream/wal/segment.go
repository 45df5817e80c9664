// Package wal is the per-tenant write-ahead log behind the stream engine's
// push-mode acknowledgment contract: every admission batch PushBatch
// admits is appended here as one record before it is admitted, so an
// acknowledged write survives kill -9 even when it has not reached a
// checkpoint yet. The log is a sequence of append-only segment files with
// a versioned header and a CRC32C per record; Commit group-commits a whole
// push with one fsync, Open repairs a torn tail by truncating the partial
// final record, Replay feeds the surviving lines back to the engine, and
// TruncateThrough deletes segments a successful checkpoint has made
// redundant.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"logparse/internal/seglog"
)

// Segment file layout (version 1):
//
//	logwal-segment v1\n
//	firstSeq (8 bytes, little-endian)
//	record*
//
// A record is one of two kinds, told apart by the top bit of its length
// word. A one-line record — what the checkpoint delta log writes, and what
// the WAL wrote before it logged batches:
//
//	crc32c  (4 bytes, little-endian) — over the length, seq and payload
//	length  (4 bytes, little-endian) — payload byte count, top bit clear
//	seq     (8 bytes, little-endian) — the line's stream sequence number
//	payload (length bytes)           — the raw line
//
// A batch record — one admission batch, lines numbered seq, seq+1, …:
//
//	crc32c  (4 bytes, little-endian) — over every byte after it
//	length  (4 bytes, little-endian) — batchFlag | body byte count
//	seq     (8 bytes, little-endian) — the first line's sequence number
//	count   (uvarint)                — lines in the record, ≥ 1
//	table   (count uvarints)         — each line's length<<1 | oversized
//	lines   (the rest of the body)   — the lines back to back
//
// The table must cover the body exactly. A binary that knows only one-line
// records reads a batch record's length as implausible, so it truncates
// the segment there as corrupt. Records never span segments and their seqs
// are strictly increasing within and across segments. The segment header,
// file naming, torn-tail vs corruption taxonomy and crash repair are
// internal/seglog's; this file holds only the record codec it verifies
// frames with.

// spec is the WAL's segment-log identity.
var spec = Format("wal", "wal")

// Format returns the WAL's on-disk format — its magic line, strictly
// increasing seqs ≥ 1, VerifyRecord's records — under another error-message
// name and file prefix, for a log that shares the codec (the stream
// package's checkpoint delta log).
func Format(name, prefix string) seglog.Spec {
	return seglog.Spec{Name: name, Prefix: prefix, Magic: segMagic, Strict: true}
}

const (
	segMagic = "logwal-segment v1\n"
	// segHeaderSize is the magic line plus the 8-byte firstSeq.
	segHeaderSize = len(segMagic) + 8
	// recHeaderSize is crc(4) + length(4) + seq(8).
	recHeaderSize = 16
	// batchFlag marks a batch record's length word.
	batchFlag = 1 << 31
)

// MaxRecordBytes bounds one record's payload — a plausibility ceiling, so a
// corrupted length field is rejected instead of driving a giant read. The
// engine's records stay far below it: a batch of several lines holds at
// most 256 KiB of them, and a longer line is a record of its own.
const MaxRecordBytes = 64 << 20

// MaxLineBytes is the longest line a record holds alone: MaxRecordBytes
// less the widest line count and table entry. stream.New refuses a larger
// line cap when it logs to a WAL.
const MaxLineBytes = MaxRecordBytes - 2*binary.MaxVarintLen64

// castagnoli is the CRC32C table (the polynomial with hardware support on
// amd64/arm64, the same choice as most storage formats).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SegmentHeader returns the encoded header of a segment whose first record
// has sequence number firstSeq. Exported for tests and fuzz seeds.
func SegmentHeader(firstSeq uint64) []byte { return spec.Header(firstSeq) }

// A Line locates one line of a batch: its bytes end at End in the batch's
// data, starting where the previous line's end (or at 0), and Oversized
// marks a line cut at the engine's line cap.
type Line struct {
	End       int
	Oversized bool
}

// appendBatchHead appends the header and line table of the batch record
// for data's lines, numbered from seq, its CRC computed over them and
// data: the record is the result followed by data. lines must end at
// len(data).
func appendBatchHead(dst []byte, seq uint64, data []byte, lines []Line) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, 0), seq)
	dst = binary.AppendUvarint(dst, uint64(len(lines)))
	prev := 0
	for _, l := range lines {
		v := uint64(l.End-prev) << 1
		if l.Oversized {
			v |= 1
		}
		dst = binary.AppendUvarint(dst, v)
		prev = l.End
	}
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr[4:8], batchFlag|uint32(len(hdr)-recHeaderSize+len(data)))
	crc := crc32.Update(crc32.Update(0, castagnoli, hdr[4:]), castagnoli, data)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	return dst
}

// AppendBatchRecord appends the batch record of data's lines, numbered
// from seq, to buf. Exported for tests and fuzz seeds.
func AppendBatchRecord(buf []byte, seq uint64, data []byte, lines []Line) []byte {
	return append(appendBatchHead(buf, seq, data, lines), data...)
}

// AppendRecord appends the binary encoding of one record to buf and
// returns the extended slice. Exported for tests and fuzz seeds.
func AppendRecord(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(crc32.Update(0, castagnoli, hdr[4:]), castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	return append(append(buf, hdr[:]...), payload...)
}

// VerifyRecord is the one-line records' verify-one-frame function for
// seglog — the checkpoint delta log's: it checks the record at the start
// of data and returns its extent and payload, a torn-tail error when data
// ends mid-record, or a corruption error when the bytes present fail
// verification (a batch record among them).
func VerifyRecord(data []byte) (seglog.Frame, []byte, error) {
	if len(data) >= recHeaderSize && binary.LittleEndian.Uint32(data[4:8])&batchFlag != 0 {
		return seglog.Frame{}, nil, &seglog.CorruptError{Reason: "batch record in a log of one-line records"}
	}
	fr, rec, err := verify(data)
	return fr, rec.data, err
}

// record is one verified record of either kind: n lines numbered from seq,
// their bytes back to back in data, and for a batch record its line table
// (nil for a one-line record, whose line is all of data).
type record struct {
	seq   uint64
	n     int
	table []byte
	data  []byte
}

// verify is the WAL's verify-one-frame function, for records of either
// kind; a batch record's line table must cover its body exactly.
func verify(data []byte) (seglog.Frame, record, error) {
	corrupt := func(reason string) (seglog.Frame, record, error) {
		return seglog.Frame{}, record{}, &seglog.CorruptError{Reason: reason}
	}
	if len(data) < recHeaderSize {
		return seglog.Frame{}, record{}, &seglog.TornTailError{}
	}
	word := binary.LittleEndian.Uint32(data[4:8])
	length, seq := word&^batchFlag, binary.LittleEndian.Uint64(data[8:16])
	if length > MaxRecordBytes {
		return corrupt(fmt.Sprintf("implausible record length %d", length))
	}
	end := recHeaderSize + int(length)
	if len(data) < end {
		return seglog.Frame{}, record{}, &seglog.TornTailError{}
	}
	if crc32.Update(0, castagnoli, data[4:end]) != binary.LittleEndian.Uint32(data[0:4]) {
		return corrupt("record crc mismatch")
	}
	rec := record{seq: seq, n: 1, data: data[recHeaderSize:end]}
	if word&batchFlag != 0 {
		body := rec.data
		count, start := binary.Uvarint(body)
		if start <= 0 || count == 0 || count > uint64(len(body)) || count-1 > math.MaxUint64-seq {
			return corrupt("bad batch line count")
		}
		pos, sum := start, 0 // the table read so far, the line bytes it claims
		for range count {
			v, k := binary.Uvarint(body[pos:])
			if k <= 0 || v>>1 > uint64(len(body)) || pos+k+sum+int(v>>1) > len(body) {
				return corrupt("batch line table overruns the record")
			}
			pos, sum = pos+k, sum+int(v>>1)
		}
		if pos+sum != len(body) {
			return corrupt("batch line table does not cover the record")
		}
		rec = record{seq: seq, n: int(count), table: body[start:pos], data: body[pos:]}
	}
	return seglog.Frame{Size: end, MinSeq: seq, MaxSeq: seq + uint64(rec.n) - 1, Units: rec.n}, rec, nil
}

// lines calls fn for each of r's lines in order; fn's error stops the walk.
func (r record) lines(fn func(seq uint64, line []byte, oversized bool) error) error {
	if r.table == nil {
		return fn(r.seq, r.data, false)
	}
	table, data := r.table, r.data
	for i := range r.n {
		v, k := binary.Uvarint(table)
		n := int(v >> 1)
		if err := fn(r.seq+uint64(i), data[:n:n], v&1 != 0); err != nil {
			return err
		}
		table, data = table[k:], data[n:]
	}
	return nil
}

// DecodeSegment walks the image data of the segment file path, calling fn
// (when non-nil) for each line of each verified record in order; the Info
// counts records as frames and their lines as units. It never panics on
// malformed input: the returned error is nil for a clean segment, a
// *seglog.TornTailError when the image ends mid-header or mid-record (a
// crash signature — the valid prefix in Info.Good is trustworthy), a
// *seglog.CorruptError when the bytes present fail verification, both
// naming path, or fn's own error, which stops the walk.
func DecodeSegment(path string, data []byte, fn func(seq uint64, line []byte, oversized bool) error) (seglog.Info, error) {
	var each func(int64, seglog.Frame, record) error
	if fn != nil {
		each = func(_ int64, _ seglog.Frame, rec record) error { return rec.lines(fn) }
	}
	info, err := seglog.Walk(&spec, data, verify, each)
	return info, spec.At(err, path, 0)
}
