package eventstore

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"logparse/internal/seglog"
)

// fuzzSeedBlocks is the seed corpus's clean two-block segment, as events.
func fuzzSeedBlocks() (blk1, blk2 []Event) {
	blk1 = []Event{
		{Seq: 1, Time: int64(time.Second), Template: 0, Kind: KindMatched},
		{Seq: 2, Time: 2 * int64(time.Second), Template: -1, Kind: KindUnmatched},
		{Seq: 3, Time: 3 * int64(time.Second), Template: 4, Kind: KindMatched, RawOff: 128},
	}
	blk2 = []Event{
		{Seq: 3, Time: 3 * int64(time.Second), Template: 2, Kind: KindLateMatched},
		{Seq: 9, Time: 9 * int64(time.Second), Template: 0, Kind: KindMatched},
	}
	return blk1, blk2
}

// fuzzSeedSegment builds that segment's image in the layout the writer
// emits.
func fuzzSeedSegment() []byte {
	blk1, blk2 := fuzzSeedBlocks()
	data, _ := AppendBlock(SegmentHeader(1), blk1)
	data, _ = AppendBlock(data, blk2)
	return data
}

// sparseSeeds are FuzzBlockRoundtrip inputs, one block each unless said,
// that reach the EVB4 sparse lists' edges; FuzzBlockDecode seeds with
// their blocks' images.
var sparseSeeds = [][]byte{
	// Every symbol sparse, −1 among them: no code, an empty column.
	{200, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 0},
	// One-event blocks: positions of zero bits.
	{0, 1, 0, 5, 0, 1, 0, 6, 0},
	// A sparse −1 (one unmatched event) beside a frequent template.
	{200, 1, 0, 1, 0, 1, 0, 1, 0, 9, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},
	// Exactly one non-sparse symbol, so its code is empty, and two sparse.
	{200, 1, 0, 3, 0, 1, 0, 4, 0, 1, 0, 3, 0, 1, 0, 3, 0, 1, 0, 5, 0, 1, 0, 3, 0, 1, 0, 3, 0, 1, 0, 3, 0},
}

// FuzzBlockDecode drives the segment recovery taxonomy: whatever the
// bytes, DecodeSegment must classify them as clean, torn, or corrupt —
// never panic, never over-claim a valid prefix — and the repaired prefix
// must redecode cleanly to the same state. scanSegmentMeta (the
// metadata-only walk Open and the Reader use) must agree with the full
// decoding walk on every input. The committed testdata seeds are v1 images
// (a read-only path); the ones added here are v4, v2, a one-template v4
// block, one segment of a v1, a v2, a v3 and a v4 block, and sparseSeeds'
// v4 blocks.
func FuzzBlockDecode(f *testing.F) {
	clean := fuzzSeedSegment()
	blk1, blk2 := fuzzSeedBlocks()
	blk3 := []Event{{Seq: 9, Time: 9 * int64(time.Second), Template: 4, RawOff: 7}, {Seq: 12, Time: 10 * int64(time.Second), Template: 2}}
	blk4 := []Event{{Seq: 12, Time: 11 * int64(time.Second), Template: -1, Kind: KindUnmatched}, {Seq: 13, Time: 11 * int64(time.Second), Template: 4}}
	mixed, _ := AppendBlock(appendBlockV3(appendBlockV2(appendBlockV1(SegmentHeader(1), blk1), blk2), blk3), blk4)
	f.Add(mixed)
	for _, seed := range sparseSeeds {
		evs := fuzzEvents(seed[1:])
		img, _ := AppendBlock(SegmentHeader(evs[0].Seq), evs)
		f.Add(img)
	}
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
	f.Add(appendBlockV2(appendBlockV2(SegmentHeader(1), blk1), blk2))
	lone, _ := AppendBlock(SegmentHeader(9), blk3[:1])
	f.Add(lone)

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

// fuzzEvents derives a valid event sequence from fuzz bytes, four per
// event, reaching what a columnar codec can get wrong: runs that break on
// any column at any position (seq repeating under late matches, kind
// flipping), time stepping backwards and to the int64 extremes, templates
// −1, one-byte, two-byte and maximal, non-zero offsets.
func fuzzEvents(data []byte) (evs []Event) {
	var ev Event
	for ; len(data) >= 4; data = data[4:] {
		b := data[:4]
		ev.Seq += int64(b[0]&3) * int64(b[0]&3) // +0 (a late run), +1, +4, +9
		switch step := int64(int8(b[1])); {
		case b[1] == 0x80:
			ev.Time = math.MinInt64
		case b[1] == 0x7f:
			ev.Time = math.MaxInt64
		case b[0]&4 != 0:
			ev.Time += step * int64(time.Millisecond)
		default:
			ev.Time += step / 32 // 0 three times in four: a batch
		}
		ev.Kind = Kind(b[0] >> 3 % uint8(kindLimit))
		switch {
		case b[2] < 0x40:
			ev.Template = int32(b[2]&7) - 1
		case b[2] < 0xf0:
			ev.Template = int32(b[2])
		default:
			ev.Template = math.MaxInt32 - int32(b[2]&15)
		}
		ev.RawOff = int64(b[3]>>6) * int64(b[3]) << (b[3] & 31)
		evs = append(evs, ev)
	}
	return evs
}

// FuzzBlockRoundtrip holds the block codec to its contract on event
// sequences derived from the fuzz bytes: AppendBlock → DecodeSegment is the
// identity, whatever the block sizes (the first byte picks them, one-event
// blocks included, at most 32 blocks and a tail); decoding with a template
// set, or one template (in a v4 block, where it is sparse, its lists
// alone), equals decoding without and filtering; and the v1, v2 and v3
// reference encoders' images of the same blocks decode to the same events.
func FuzzBlockRoundtrip(f *testing.F) {
	for _, seed := range sparseSeeds {
		f.Add(seed)
	}
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 1, 0})                                                // one-event blocks
	f.Add([]byte{40, 1, 0, 3, 0, 0, 0, 3, 0, 8, 0, 3, 0, 16, 0, 0x41, 0, 5, 9, 0x91, 0xc1}) // a late run, kinds flipping
	f.Add([]byte{7, 5, 0x80, 0xff, 0xff, 5, 0x7f, 0xf0, 0x7f, 1, 0x80, 0, 0})               // time extremes, maximal templates
	f.Add(append([]byte{200}, bytes.Repeat([]byte{1, 0, 2, 0}, 130)...))                    // long runs on every column
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		evs := fuzzEvents(data[1:])
		per := max(1+int(data[0]), len(evs)/32) // a flate writer per block: keep an exec cheap
		v1, v2, v3, v4 := SegmentHeader(evs[0].Seq), SegmentHeader(evs[0].Seq), SegmentHeader(evs[0].Seq), SegmentHeader(evs[0].Seq)
		for at := 0; at < len(evs); at += per {
			blk := evs[at:min(at+per, len(evs))]
			var err error
			if v4, err = AppendBlock(v4, blk); err != nil {
				t.Fatalf("AppendBlock: %v", err)
			}
			v1, v2, v3 = appendBlockV1(v1, blk), appendBlockV2(v2, blk), appendBlockV3(v3, blk)
		}
		sets := [][]int32{{evs[len(evs)/2].Template, 3}, {evs[len(evs)-1].Template}}
		want := make([][]Event, len(sets))
		for _, ev := range evs {
			for k, ids := range sets {
				if slices.Contains(ids, ev.Template) {
					want[k] = append(want[k], ev)
				}
			}
		}
		for i, img := range [][]byte{v1, v2, v3, v4} {
			name := []string{"v1", "v2", "v3", "v4"}[i]
			var got []Event
			filtered := make([][]Event, len(sets))
			var z decoder
			info, err := scanSegmentMeta(img, true, func(_ int64, _ seglog.Frame, v blockView) error {
				if v.meta.version != byte(i+1) {
					t.Fatalf("%s: a block of layout %d", name, v.meta.version)
				}
				if err := z.decode(v, nil, func(ev Event) error { got = append(got, ev); return nil }); err != nil {
					return err
				}
				for k, ids := range sets {
					if err := z.decode(v, ids, func(ev Event) error { filtered[k] = append(filtered[k], ev); return nil }); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil || info.Events != int64(len(evs)) || info.Good != int64(len(img)) {
				t.Fatalf("%s: %+v, %v", name, info, err)
			}
			if !slices.Equal(got, evs) {
				t.Fatalf("%s: decoded\n%v\nwant\n%v", name, got, evs)
			}
			for k, ids := range sets {
				if !slices.Equal(filtered[k], want[k]) {
					t.Fatalf("%s: decoded with template set %v\n%v\nwant\n%v", name, ids, filtered[k], want[k])
				}
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
