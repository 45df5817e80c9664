// Package wal is the per-tenant write-ahead log behind the stream engine's
// push-mode acknowledgment contract: every line PushBatch admits is
// appended here before the batch is acknowledged, so an acknowledged write
// survives kill -9 even when it has not reached a checkpoint yet. The log
// is a sequence of append-only segment files with a versioned header and a
// CRC32C per record; Commit group-commits a whole admission batch with one
// fsync, Open repairs a torn tail by truncating the partial final record,
// Replay feeds the surviving records back to the engine, and
// TruncateThrough deletes segments a successful checkpoint has made
// redundant.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"logparse/internal/seglog"
)

// Segment file layout (version 1):
//
//	logwal-segment v1\n
//	firstSeq (8 bytes, little-endian)
//	record*
//
// Record layout:
//
//	crc32c  (4 bytes, little-endian) — over the length, seq and payload
//	length  (4 bytes, little-endian) — payload byte count
//	seq     (8 bytes, little-endian) — the line's stream sequence number
//	payload (length bytes)           — the raw line
//
// Records never span segments and their seqs are strictly increasing
// within and across segments. The segment header, file naming, torn-tail
// vs corruption taxonomy and crash repair are internal/seglog's; this file
// holds only the record codec it verifies frames with.

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
)

// MaxRecordBytes bounds one record's payload — a plausibility ceiling well
// above any line the engine admits (stream.Config.MaxLineBytes defaults to
// 4 MiB), so a corrupted length field is rejected instead of driving a
// giant read.
const MaxRecordBytes = 64 << 20

// castagnoli is the CRC32C table (the polynomial with hardware support on
// amd64/arm64, the same choice as most storage formats).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SegmentInfo summarizes the valid prefix of one decoded segment image.
type SegmentInfo struct {
	// FirstSeq is the header's first sequence number.
	FirstSeq uint64
	// LastSeq is the last valid record's seq (0 when the segment holds no
	// valid records).
	LastSeq uint64
	// Records counts the valid records.
	Records int
	// Good is the byte length of the valid prefix: the header plus every
	// whole, verified record. Truncating the file to Good removes a torn
	// or corrupt tail without touching trustworthy data.
	Good int64
}

// SegmentHeader returns the encoded header of a segment whose first record
// has sequence number firstSeq. Exported for tests and fuzz seeds.
func SegmentHeader(firstSeq uint64) []byte { return spec.Header(firstSeq) }

// encodeRecordHeader fills hdr for one record, allocation-free for the
// append hot path.
func encodeRecordHeader(hdr *[recHeaderSize]byte, seq uint64, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(0, castagnoli, hdr[4:])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
}

// AppendRecord appends the binary encoding of one record to buf and
// returns the extended slice. Exported for tests and fuzz seeds.
func AppendRecord(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	encodeRecordHeader(&hdr, seq, payload)
	return append(append(buf, hdr[:]...), payload...)
}

// VerifyRecord is the codec's verify-one-frame function for seglog: it
// checks the record at the start of data and returns its extent and
// payload, a torn-tail error when data ends mid-record, or a corruption
// error when the bytes present fail verification.
func VerifyRecord(data []byte) (seglog.Frame, []byte, error) {
	if len(data) < recHeaderSize {
		return seglog.Frame{}, nil, &seglog.TornTailError{}
	}
	length := binary.LittleEndian.Uint32(data[4:8])
	seq := binary.LittleEndian.Uint64(data[8:16])
	if length > MaxRecordBytes {
		return seglog.Frame{}, nil, &seglog.CorruptError{Reason: fmt.Sprintf("implausible record length %d", length)}
	}
	end := recHeaderSize + int(length)
	if len(data) < end {
		return seglog.Frame{}, nil, &seglog.TornTailError{}
	}
	if crc32.Update(0, castagnoli, data[4:end]) != binary.LittleEndian.Uint32(data[0:4]) {
		return seglog.Frame{}, nil, &seglog.CorruptError{Reason: "record crc mismatch"}
	}
	return seglog.Frame{Size: end, MinSeq: seq, MaxSeq: seq, Units: 1}, data[recHeaderSize:end], nil
}

// DecodeSegment walks one segment image, calling fn (when non-nil) for
// each verified record in order. It never panics on malformed input: the
// returned error is nil for a clean segment, a *seglog.TornTailError when
// the image ends mid-header or mid-record (a crash signature — the valid
// prefix in SegmentInfo.Good is trustworthy), a *seglog.CorruptError when
// the bytes present fail verification, or fn's own error, which stops the
// walk. The Path fields of returned errors are empty.
func DecodeSegment(data []byte, fn func(seq uint64, payload []byte) error) (SegmentInfo, error) {
	var each func(int64, seglog.Frame, []byte) error
	if fn != nil {
		each = func(_ int64, fr seglog.Frame, payload []byte) error { return fn(fr.MinSeq, payload) }
	}
	info, err := seglog.Walk(&spec, data, VerifyRecord, each)
	return SegmentInfo{FirstSeq: info.FirstSeq, LastSeq: info.LastSeq, Records: info.Frames, Good: info.Good}, err
}
