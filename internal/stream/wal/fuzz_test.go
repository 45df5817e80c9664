package wal

import (
	"bytes"
	"errors"
	"testing"

	"logparse/internal/seglog"
)

// FuzzWALDecode throws arbitrary bytes at the segment decoder — the code
// that runs first on every crash recovery, over exactly the bytes a crash
// left behind. Whatever the input, DecodeSegment must never panic, must
// classify the damage as either a torn tail (crash signature; the prefix is
// trustworthy) or body corruption (the bytes present cannot be trusted) —
// never both, never neither — and the valid prefix it reports must itself
// decode cleanly to the same records.
func FuzzWALDecode(f *testing.F) {
	// A healthy multi-record segment, and the damage classes recovery must
	// tell apart.
	valid := SegmentHeader(7)
	valid = AppendRecord(valid, 7, []byte("alpha line"))
	valid = AppendRecord(valid, 8, []byte(""))
	valid = AppendRecord(valid, 9, bytes.Repeat([]byte("z"), 300))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])  // torn tail: final record cut short
	f.Add(valid[:segHeaderSize]) // header only, no records
	f.Add(valid[:10])            // torn mid-header
	f.Add(SegmentHeader(0))      // corrupt: zero first sequence

	flipped := append([]byte(nil), valid...)
	flipped[segHeaderSize+recHeaderSize+2] ^= 0x40 // corrupt: payload bit flip
	f.Add(flipped)

	backwards := SegmentHeader(5)
	backwards = AppendRecord(backwards, 5, []byte("ok"))
	backwards = AppendRecord(backwards, 4, []byte("seq went backwards"))
	f.Add(backwards)

	// Batch records after a one-line one, as a tree that logs batches
	// extends a segment an older one wrote: whole, torn, flipped, and with
	// a line table that covers less than the body.
	data, lines := batchOf(64, 5)
	batched := AppendBatchRecord(append([]byte(nil), valid...), 10, data[:lines[2].End], lines[:3])
	batched = AppendBatchRecord(batched, 13, data, lines)
	f.Add(batched)
	f.Add(batched[:len(batched)-100])
	flipped = append([]byte(nil), batched...)
	flipped[len(valid)+recHeaderSize+1] ^= 0x02 // a line length
	f.Add(flipped)
	short := append([]Line(nil), lines[:3]...)
	short[2].End--
	f.Add(AppendBatchRecord(append([]byte(nil), valid...), 10, data[:lines[2].End], short))

	f.Add(append(append([]byte(nil), valid...), "trailing garbage"...))
	f.Add([]byte("not a segment at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var seqs []uint64
		info, err := DecodeSegment("", data, func(seq uint64, _ []byte, _ bool) error {
			seqs = append(seqs, seq)
			return nil
		})

		var torn *seglog.TornTailError
		var corrupt *seglog.CorruptError
		switch {
		case err == nil:
		case errors.As(err, &torn):
			if errors.As(err, &corrupt) {
				t.Fatal("error classified as both torn tail and corruption")
			}
			if torn.Offset != info.Good {
				t.Fatalf("torn tail at %d but valid prefix ends at %d", torn.Offset, info.Good)
			}
		case errors.As(err, &corrupt):
			if corrupt.Offset < info.Good {
				t.Fatalf("corruption at %d inside the valid prefix (good=%d)", corrupt.Offset, info.Good)
			}
		default:
			t.Fatalf("unclassified decode error %T: %v", err, err)
		}

		if info.Good < 0 || info.Good > int64(len(data)) {
			t.Fatalf("valid prefix %d outside the image [0,%d]", info.Good, len(data))
		}
		if info.Units != int64(len(seqs)) {
			t.Fatalf("info counts %d records, callback saw %d", info.Units, len(seqs))
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("decoder surfaced non-increasing seqs %d then %d", seqs[i-1], seqs[i])
			}
		}
		if len(seqs) > 0 {
			// The writer always starts a segment at its header seq, but the
			// decoder only requires monotonicity from there — a first record
			// beyond firstSeq is tolerated, below it is corruption.
			if seqs[0] < info.FirstSeq {
				t.Fatalf("first record seq %d below header first seq %d", seqs[0], info.FirstSeq)
			}
			if seqs[len(seqs)-1] != info.LastSeq {
				t.Fatalf("last record seq %d != info.LastSeq %d", seqs[len(seqs)-1], info.LastSeq)
			}
		}

		// Truncating to the reported valid prefix is exactly the repair
		// Open performs; the repaired image must decode cleanly to the
		// same records.
		if info.Good >= int64(segHeaderSize) {
			n := 0
			info2, err2 := DecodeSegment("", data[:info.Good], func(seq uint64, _ []byte, _ bool) error {
				if seq != seqs[n] {
					t.Fatalf("repaired prefix record %d has seq %d, first pass saw %d", n, seq, seqs[n])
				}
				n++
				return nil
			})
			if err2 != nil {
				t.Fatalf("repaired prefix does not decode cleanly: %v", err2)
			}
			if info2.Units != info.Units || info2.Good != info.Good {
				t.Fatalf("repaired prefix decode diverges: %+v vs %+v", info2, info)
			}
		}
	})
}
