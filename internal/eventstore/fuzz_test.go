package eventstore

import (
	"testing"
	"time"

	"logparse/internal/seglog"
)

// fuzzSeedSegment builds a clean two-block segment image for the seed
// corpus.
func fuzzSeedSegment() []byte {
	data := SegmentHeader(1)
	blk1 := []Event{
		{Seq: 1, Time: int64(time.Second), Template: 0, Kind: KindMatched},
		{Seq: 2, Time: 2 * int64(time.Second), Template: -1, Kind: KindUnmatched},
		{Seq: 3, Time: 3 * int64(time.Second), Template: 4, Kind: KindMatched, RawOff: 128},
	}
	blk2 := []Event{
		{Seq: 3, Time: 3 * int64(time.Second), Template: 2, Kind: KindLateMatched},
		{Seq: 9, Time: 9 * int64(time.Second), Template: 0, Kind: KindMatched},
	}
	data, _ = AppendBlock(data, blk1)
	data, _ = AppendBlock(data, blk2)
	return data
}

// FuzzBlockDecode drives the segment recovery taxonomy: whatever the
// bytes, DecodeSegment must classify them as clean, torn, or corrupt —
// never panic, never over-claim a valid prefix — and the repaired prefix
// must redecode cleanly to the same state. scanSegmentMeta (the
// metadata-only walk Open and the Reader use) must agree with the full
// decompressing walk on every input.
func FuzzBlockDecode(f *testing.F) {
	clean := fuzzSeedSegment()
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(SegmentHeader(0))
	f.Add(SegmentHeader(7))
	f.Add(clean)
	f.Add(clean[:len(clean)-5])    // torn tail
	f.Add(clean[:segHeaderSize+7]) // torn mid block header
	f.Add(append([]byte("not a segment"), clean...))
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-10] ^= 0xff // damage inside the final checksum
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		var seqs []int64
		info, err := DecodeSegment(data, func(ev Event) error {
			seqs = append(seqs, ev.Seq)
			return nil
		})
		switch err.(type) {
		case nil, *seglog.TornTailError, *seglog.CorruptError:
		default:
			t.Fatalf("unexpected error type %T: %v", err, err)
		}
		if info.Good < 0 || info.Good > int64(len(data)) {
			t.Fatalf("Good %d outside [0, %d]", info.Good, len(data))
		}
		if err == nil && info.Good != int64(len(data)) {
			t.Fatalf("clean decode but Good %d != %d", info.Good, len(data))
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] < seqs[i-1] {
				t.Fatalf("decoded seqs regress: %d after %d", seqs[i], seqs[i-1])
			}
		}

		// The metadata-only walk must reach the same verdict and totals.
		minfo, merr := scanSegmentMeta(data, true, nil)
		if (err == nil) != (merr == nil) {
			t.Fatalf("walks disagree: full=%v meta=%v", err, merr)
		}
		if info != minfo {
			t.Fatalf("walks disagree on info: full=%+v meta=%+v", info, minfo)
		}

		// Recovery truncates at Good: the repaired prefix must decode
		// clean with identical contents.
		if info.Good >= int64(segHeaderSize) {
			rinfo, rerr := DecodeSegment(data[:info.Good], nil)
			if rerr != nil {
				t.Fatalf("repaired prefix does not decode: %v", rerr)
			}
			if rinfo.Blocks != info.Blocks || rinfo.Events != info.Events || rinfo.Good != info.Good {
				t.Fatalf("repaired prefix diverged: %+v vs %+v", rinfo, info)
			}
		}
	})
}

// TestFuzzSeedsRoundtrip pins the seed constructor itself: the clean seed
// must decode to exactly what AppendBlock was given.
func TestFuzzSeedsRoundtrip(t *testing.T) {
	data := fuzzSeedSegment()
	var got []Event
	info, err := DecodeSegment(data, func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if info.Blocks != 2 || info.Events != 5 || info.FirstSeq != 1 || info.LastSeq != 9 {
		t.Fatalf("seed info: %+v", info)
	}
	if len(got) != 5 || got[0].Seq != 1 || got[2].RawOff != 128 || got[3].Kind != KindLateMatched {
		t.Fatalf("seed events: %+v", got)
	}
}
