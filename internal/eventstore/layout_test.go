package eventstore

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"logparse/internal/seglog"
)

// rawBlock seals a hand-made raw body under m's layout (version 1, 2 or 3)
// and footer claims (rawLen, when set, overrides the header's): the back half of the v1 and v2 reference encoders and
// the whole of the hostile-body tables. A v1 or v2 body is deflated, a v3
// body stored. What it writes is checksummed, so only the decoder's own
// checks stand between the body and the caller.
func rawBlock(dst, raw []byte, m blockMeta, index []IndexEntry) []byte {
	body := bytes.NewBuffer(raw)
	if m.version < 3 {
		body = new(bytes.Buffer)
		fw, _ := flate.NewWriter(body, flate.BestSpeed)
		fw.Write(raw)
		fw.Close()
	}

	var ftr []byte
	for _, v := range []int64{m.minSeq, m.maxSeq, m.minTime, m.maxTime} {
		ftr = binary.LittleEndian.AppendUint64(ftr, uint64(v))
	}
	ftr = binary.LittleEndian.AppendUint32(ftr, m.count)
	ftr = binary.LittleEndian.AppendUint32(ftr, m.matched)
	magic := fmt.Sprintf("EVB%d", m.version)
	if m.version == 1 {
		ftr = append(ftr, make([]byte, footerV1Skipped)...)
	}
	ftr = binary.LittleEndian.AppendUint32(ftr, uint32(len(index)))
	for _, e := range index {
		ftr = binary.AppendUvarint(ftr, uint64(e.Template))
		ftr = binary.AppendUvarint(ftr, uint64(e.Count))
	}

	start := len(dst)
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body.Len()))
	dst = binary.LittleEndian.AppendUint32(dst, cmp.Or(m.rawLen, uint32(len(raw))))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ftr)))
	dst = append(dst, body.Bytes()...)
	dst = append(dst, ftr...)
	sum := sha256.Sum256(dst[start:])
	return append(dst, sum[:]...)
}

// appendEventRecord delta-encodes one event against prev, as a v1 row. (As
// the v1 writer did, but for template MaxInt32, which that one sign-extended
// into a code its own decoder refused.)
func appendEventRecord(buf []byte, prev, ev Event) []byte {
	buf = binary.AppendUvarint(buf, uint64(ev.Seq-prev.Seq))
	buf = binary.AppendVarint(buf, ev.Time-prev.Time)
	buf = binary.AppendUvarint(buf, uint64(uint32(ev.Template)+1))
	buf = append(buf, byte(ev.Kind))
	return binary.AppendUvarint(buf, uint64(ev.RawOff))
}

// appendBlockV1 is the reference encoder of the first layout this tree no
// longer writes: AppendBlock as it was, rows and all.
func appendBlockV1(dst []byte, events []Event) []byte {
	return appendBlockOld(dst, events, 1)
}

// appendBlockV2 is the reference encoder of the second: the v3 run
// columns and a uvarint template column, deflated.
func appendBlockV2(dst []byte, events []Event) []byte {
	return appendBlockOld(dst, events, 2)
}

// appendBlockOld encodes events as one block of layout version 1 or 2.
func appendBlockOld(dst []byte, events []Event, version byte) []byte {
	m := blockMeta{version: version, minSeq: events[0].Seq, minTime: math.MaxInt64, maxTime: math.MinInt64}
	counts := map[int32]int64{}
	var raw, tmpl []byte
	var cols [numCols]runColumn
	var prev Event
	for _, ev := range events {
		if version == 1 {
			raw = appendEventRecord(raw, prev, ev)
		} else {
			cols[colSeq].add(ev.Seq - prev.Seq)
			cols[colTime].add(ev.Time - prev.Time)
			cols[colKind].add(int64(ev.Kind))
			cols[colOff].add(ev.RawOff)
			tmpl = binary.AppendUvarint(tmpl, uint64(uint32(ev.Template)+1))
		}
		prev = ev
		m.count++
		m.maxSeq, m.minTime, m.maxTime = ev.Seq, min(m.minTime, ev.Time), max(m.maxTime, ev.Time)
		if ev.Template >= 0 {
			m.matched++
			counts[ev.Template]++
		}
	}
	var index []IndexEntry
	for id, n := range counts {
		index = append(index, IndexEntry{Template: id, Count: n})
	}
	slices.SortFunc(index, func(a, b IndexEntry) int { return int(a.Template) - int(b.Template) })
	for c := range cols {
		cols[c].flush()
		raw = append(raw, cols[c].buf...)
	}
	return rawBlock(dst, append(raw, tmpl...), m, index)
}

// runs encodes (length, value) pairs as one run column.
func runs(pairs ...int64) (col []byte) {
	for i := 0; i < len(pairs); i += 2 {
		col = binary.AppendVarint(binary.AppendUvarint(col, uint64(pairs[i])), pairs[i+1])
	}
	return col
}

// TestHostileColumns hands the v2 and v3 decoders bodies no writer
// produces, each inside a block whose header, footer and checksum are in
// order: every one is corruption — never a panic, a hang, or more events
// than the footer counts.
func TestHostileColumns(t *testing.T) {
	// Four events, seqs 10..13 at one instant, template 0.
	meta := blockMeta{version: 2, minSeq: 10, maxSeq: 13, minTime: 100, maxTime: 100, count: 4, matched: 4}
	index := []IndexEntry{{Template: 0, Count: 4}}
	seq, tim, zero, tmpl := runs(1, 10, 3, 1), runs(1, 100, 3, 0), runs(4, 0), []byte{1, 1, 1, 1}
	body := func(cols ...[]byte) []byte { return slices.Concat(cols...) }
	decode := func(raw []byte) (int, error) {
		n := 0
		_, err := DecodeSegment(rawBlock(SegmentHeader(10), raw, meta, index), func(Event) error { n++; return nil })
		return n, err
	}
	if n, err := decode(body(seq, tim, zero, zero, tmpl)); n != 4 || err != nil {
		t.Fatalf("the honest body: %d events, %v", n, err)
	}
	for name, raw := range map[string][]byte{
		"empty body":                   nil,
		"run length 0":                 body(runs(0, 10, 1, 10, 3, 1), tim, zero, zero, tmpl),
		"runs overshoot count":         body(runs(1, 10, 4, 1), tim, zero, zero, tmpl),
		"run length above 2^32":        body(runs(1, 10, 1<<32+3, 1), tim, zero, zero, tmpl),
		"column short of count":        body(seq, tim, zero, runs(3, 0), tmpl),
		"body ends inside a column":    body(seq, tim, runs(2, 0)),
		"run cut inside its value":     body(seq, tim, zero, zero[:1]),
		"negative seq delta":           body(runs(1, 10, 1, -1, 2, 2), tim, zero, zero, tmpl),
		"run product overflows int64":  body(runs(1, 10, 3, 1<<62), tim, zero, zero, tmpl),
		"run sum overflows int64":      body(runs(1, 10, 1, math.MaxInt64, 2, 1), tim, zero, zero, tmpl),
		"seq above the footer maximum": body(runs(1, 10, 3, 2), tim, zero, zero, tmpl),
		"first seq below the footer's": body(runs(1, 9, 1, 2, 2, 1), tim, zero, zero, tmpl),
		"last seq below the footer's":  body(runs(1, 10, 3, 0), tim, zero, zero, tmpl),
		"kind at kindLimit":            body(seq, tim, runs(3, 0, 1, int64(kindLimit)), zero, tmpl),
		"negative kind":                body(seq, tim, runs(4, -1), zero, tmpl),
		"negative offset":              body(seq, tim, zero, runs(2, 0, 2, -1), tmpl),
		"template column one short":    body(seq, tim, zero, zero, tmpl[:3]),
		"template column one over":     body(seq, tim, zero, zero, tmpl, tmpl[:1]),
		"template cut inside a varint": body(seq, tim, zero, zero, tmpl[:3], []byte{0x80}),
		"template above 2^31":          body(seq, tim, zero, zero, tmpl[:3], binary.AppendUvarint(nil, 1<<31+1)),
		"template varint overflows":    body(seq, tim, zero, zero, tmpl[:3], bytes.Repeat([]byte{0xff}, 11)),
	} {
		n, err := decode(raw)
		var ce *seglog.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: %d events, err %v; want a CorruptError", name, n, err)
		}
		if n > int(meta.count) {
			t.Errorf("%s: %d events came out of a block of %d", name, n, meta.count)
		}
	}

	// v3: six events, seqs 10..15 at one instant, templates 0 1 0 −1 1 −1,
	// so three symbols of weight 2 — codes 10, 11 and, for −1, 0.
	meta = blockMeta{version: 3, minSeq: 10, maxSeq: 15, minTime: 100, maxTime: 100, count: 6, matched: 4}
	index = []IndexEntry{{Template: 0, Count: 2}, {Template: 1, Count: 2}}
	cols := body(runs(1, 10, 5, 1), runs(1, 100, 5, 0), runs(3, 0, 1, 1, 1, 0, 1, 1), runs(6, 0))
	honest := []byte{0b1011_1001, 0b1000_0000}
	if n, err := decode(body(cols, honest)); n != 6 || err != nil {
		t.Fatalf("the honest v3 body: %d events, %v", n, err)
	}
	hostile := map[string][]byte{
		"code cut by the column's end": body(cols, honest[:1]),
		"short column":                 cols,
		"trailing byte":                body(cols, honest, []byte{0}),
		"non-zero padding":             body(cols, []byte{0b1011_1001, 0b1000_0001}),
		"histogram ≠ index":            body(cols, []byte{0b1010_1001, 0b1000_0000}),
		"run columns short of count":   body(runs(1, 10, 4, 1), runs(1, 100, 5, 0), runs(6, 0), runs(6, 0), honest),
	}
	for name, raw := range hostile {
		n, err := decode(raw)
		var ce *seglog.CorruptError
		if !errors.As(err, &ce) || n > int(meta.count) {
			t.Errorf("v3 %s: %d events, err %v; want a CorruptError", name, n, err)
		}
	}
	for name, m := range map[string]blockMeta{
		"rawLen ≠ bodyLen":          {version: 3, minSeq: 10, maxSeq: 15, minTime: 100, maxTime: 100, count: 6, matched: 4, rawLen: uint32(len(cols) + 3)},
		"count above MaxBlockBytes": {version: 3, minSeq: 10, maxSeq: 15, minTime: 100, maxTime: 100, count: MaxBlockBytes + 3, matched: 4},
	} {
		_, err := DecodeSegment(rawBlock(SegmentHeader(10), body(cols, honest), m, index), nil)
		var ce *seglog.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("v3 %s: err %v; want a CorruptError", name, err)
		}
	}

	// Fibonacci counts — template i has F(i+1) events, 26 templates — make
	// the lightest template's Huffman code 25 bits long, past the cap: the
	// writer and reader must both halve the weights to the same code.
	var evs []Event
	for i, f0, f1 := int32(0), 1, 1; i < 26; i, f0, f1 = i+1, f1, f0+f1 {
		for k := 0; k < f0; k++ {
			evs = append(evs, Event{Seq: int64(len(evs)), Template: i})
		}
	}
	img, err := AppendBlock(SegmentHeader(0), evs)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	if _, err := DecodeSegment(img, func(ev Event) error { got = append(got, ev); return nil }); err != nil || !slices.Equal(got, evs) {
		t.Fatalf("Fibonacci block: %d of %d events back, %v", len(got), len(evs), err)
	}
	var fib []IndexEntry
	bm, bodyBytes, err := scanBlock(img[segHeaderSize:], &fib)
	if err != nil {
		t.Fatal(err)
	}
	var h huffman
	h.alphabet(fib, bm.count-bm.matched)
	uncapped := slices.Clone(h.weight)
	minRedundancy(uncapped)
	if h.build(); uncapped[0] != 25 || h.maxLen > maxCodeLen {
		t.Fatalf("Fibonacci code: %d bits uncapped, %d capped", uncapped[0], h.maxLen)
	}
	flipped := slices.Clone(bodyBytes)
	flipped[len(flipped)-1] ^= 1 << 7
	_, err = DecodeSegment(rawBlock(SegmentHeader(0), flipped, bm, fib), nil)
	var ce *seglog.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Fibonacci block with a bit flipped: %v", err)
	}
}

// modelEvent is the i-th event (seq i) of the mixed-layout corpus: the
// refresh model's stream — seven events per instant, five templates, every
// eleventh unmatched.
func modelEvent(seq int64) Event {
	ev := Event{Seq: seq, Time: seq / 7 * int64(time.Millisecond), Template: int32(seq % 5), Kind: KindMatched}
	if seq%11 == 0 {
		ev.Template, ev.Kind = -1, KindUnmatched
	}
	return ev
}

// checkModel holds TestReaderRefreshModel's five queries on r equal to a
// brute-force evaluation over the events the store should hold.
func checkModel(t *testing.T, r *Reader, model []Event) {
	t.Helper()
	last := model[len(model)-1].Seq
	at := func(seq int64) time.Time { return time.Unix(0, seq/7*int64(time.Millisecond)) }
	for _, q := range []Query{
		{},
		{IncludeUnmatched: true},
		{TemplateIDs: []int32{1, 3}},
		{From: at(last / 4), To: at(last / 2), IncludeUnmatched: true},
		{TemplateIDs: []int32{2}, From: at(last / 3), Limit: 5},
	} {
		from, to := q.timeBounds()
		var want []Event
		counts := map[int32]int64{}
		for _, ev := range model {
			switch {
			case ev.Time < from || ev.Time >= to:
			case len(q.TemplateIDs) > 0 && !slices.Contains(q.TemplateIDs, ev.Template):
			case ev.Template < 0 && !q.IncludeUnmatched:
			default:
				want = append(want, ev)
				counts[ev.Template]++
			}
		}
		n, _, err := r.Count(q)
		if err != nil || n != int64(len(want)) {
			t.Fatalf("%+v: Count = %d, %v; model %d", q, n, err, len(want))
		}
		got, _, err := r.TemplateCounts(q)
		if err != nil || !reflect.DeepEqual(got, counts) {
			t.Fatalf("%+v: TemplateCounts = %v, %v; model %v", q, got, err, counts)
		}
		if q.Limit > 0 {
			want = want[:min(q.Limit, len(want))]
		}
		var evs []Event
		if _, err := r.Scan(q, func(ev Event) error { evs = append(evs, ev); return nil }); err != nil || !slices.Equal(evs, want) {
			t.Fatalf("%+v: Scan = %d events, %v; model %d\n%v\n%v", q, len(evs), err, len(want), evs, want)
		}
	}
}

// TestMixedLayouts is a store's life across both layout changes: a segment
// of v1 then v2 blocks, as the trees before each change left them, opened,
// aligned inside the v2 part, extended with v3 blocks by this writer, and
// read — cold, and by a reader refreshed across the boundary — against a
// model.
func TestMixedLayouts(t *testing.T) {
	dir := t.TempDir()
	var model []Event
	data := SegmentHeader(1)
	for seq := int64(1); seq <= 600; seq += 50 {
		var blk []Event
		for s := seq; s < seq+50; s++ {
			blk = append(blk, modelEvent(s))
		}
		if seq <= 300 {
			data = appendBlockV1(data, blk)
		} else {
			data = appendBlockV2(data, blk)
		}
		model = append(model, blk...)
	}
	seg := filepath.Join(dir, "evt-00000000000000000001.seg")
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old, info, err := OpenReader(dir, ReaderOptions{})
	if err != nil || info.Blocks != 12 || info.Events != 600 || info.Damaged != "" || info.TornTail {
		t.Fatalf("OpenReader over v1 and v2: %+v, %v", info, err)
	}
	checkModel(t, old, model)

	// The writer's Open repairs nothing, and AlignTo cuts at a v2 block edge.
	s, oi, err := Open(Options{Dir: dir, BlockBytes: 64})
	if err != nil || oi.Events != 600 || oi.TornTails != 0 || oi.CorruptDropped != 0 {
		t.Fatalf("Open over v1 and v2: %+v, %v", oi, err)
	}
	ai, err := s.AlignTo(375)
	if err != nil || ai.BlocksDropped != 5 || ai.Spanning != 1 || s.LastSeq() != 350 {
		t.Fatalf("AlignTo(375) = %+v, %v; LastSeq %d", ai, err, s.LastSeq())
	}
	model = model[:350]
	if _, _, err := old.Refresh(); !errors.Is(err, seglog.ErrNotExtension) {
		t.Fatalf("Refresh over the cut-back store: %v", err)
	}
	kept, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkModel(t, kept, model)

	// Replay extends the same segment with v3 blocks, a late-matched run
	// (one seq, kind flipping) among them.
	for seq := int64(351); seq <= 900; seq++ {
		ev := modelEvent(seq)
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
		model = append(model, ev)
		for k := int64(0); seq%97 == 0 && k < 3; k++ {
			late := Event{Seq: seq, Time: ev.Time, Template: int32(k), Kind: KindLateMatched}
			if err := s.Append(late); err != nil {
				t.Fatal(err)
			}
			model = append(model, late)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	kept, info, err = kept.Refresh()
	if err != nil || info.Events != int64(len(model)) || info.Segments != 1 {
		t.Fatalf("Refresh across the layout boundary: %+v, %v", info, err)
	}
	checkModel(t, kept, model)
	cold, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkModel(t, cold, model)
	if got := readAll(t, dir); !slices.Equal(got, model) {
		t.Fatalf("read back %d events, model %d", len(got), len(model))
	}

	// The one file really holds all three layouts, in order: six v1
	// blocks, the one v2 block AlignTo kept, then v3.
	data, err = os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var layouts []byte
	if _, err := scanSegmentMeta(data, false, func(_ int64, _ seglog.Frame, v blockView) error {
		layouts = append(layouts, v.meta.version)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(layouts) < 10 || !slices.IsSorted(layouts) || !slices.Equal(layouts[:8], []byte{1, 1, 1, 1, 1, 1, 2, 3}) {
		t.Fatalf("block layouts: %v", layouts)
	}

	// A later restart may still cut back into the v1 part, past every v2
	// and v3 block.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, _, err = Open(Options{Dir: dir, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ai, err := s.AlignTo(120); err != nil || ai.BlocksDropped != len(layouts)-2 || s.LastSeq() != 100 {
		t.Fatalf("AlignTo(120) = %+v, %v; LastSeq %d", ai, err, s.LastSeq())
	}
	if got := readAll(t, dir); !slices.Equal(got, model[:100]) {
		t.Fatalf("after the second cut: %d events", len(got))
	}
}

// TestParentWrittenSegment reads the segments the commits before each
// layout change wrote with their own binaries (logstreamd -dataset HDFS
// -lines 1500 -seed 7 -checkpoint-every 400 -events … -events-block-bytes
// 1024: ten v1 blocks, or four v2 blocks, with unmatched and late-matched
// events) back event for event against those commits' own decoding of
// them. The two trees numbered the same stream's templates differently.
func TestParentWrittenSegment(t *testing.T) {
	for _, fx := range []struct {
		layout   string
		blocks   int
		template int32 // its count, in the writer's logquery, is 424
	}{{"v1", 10, 27}, {"v2", 4, 0}} {
		t.Run(fx.layout, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", fx.layout, "events.txt"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var want []Event
			for sc := bufio.NewScanner(f); sc.Scan(); {
				var ev Event
				var dt int64
				if _, err := fmt.Sscan(sc.Text(), &ev.Seq, &dt, &ev.Template, &ev.Kind, &ev.RawOff); err != nil {
					t.Fatalf("events.txt: %q: %v", sc.Text(), err)
				}
				if len(want) > 0 {
					dt += want[len(want)-1].Time
				}
				ev.Time = dt
				want = append(want, ev)
			}
			data, err := os.ReadFile(filepath.Join("testdata", fx.layout, "evt-00000000000000000001.seg"))
			if err != nil {
				t.Fatal(err)
			}
			var got []Event
			info, err := DecodeSegment(data, func(ev Event) error { got = append(got, ev); return nil })
			magic := []byte("EVB" + fx.layout[1:])
			if err != nil || info.Blocks != fx.blocks || info.Good != int64(len(data)) || bytes.Count(data, magic) < fx.blocks {
				t.Fatalf("DecodeSegment: %+v, %v", info, err)
			}
			if len(want) != 1739 || !slices.Equal(got, want) {
				t.Fatalf("decoded %d events, the parent decoded %d", len(got), len(want))
			}

			// And as a store: the writer opens it without repair, the
			// reader's counts are the footer's.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "evt-00000000000000000001.seg"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, oi, err := Open(Options{Dir: dir})
			if err != nil || oi.Events != 1739 || oi.LastSeq != 1500 || oi.TornTails+oi.CorruptDropped != 0 {
				t.Fatalf("Open: %+v, %v", oi, err)
			}
			s.Close()
			if all := readAll(t, dir); !slices.Equal(all, want) {
				t.Fatalf("Scan read back %d events", len(all))
			}
			r, _, _ := OpenReader(dir, ReaderOptions{})
			if n, st, err := r.Count(Query{TemplateIDs: []int32{fx.template}}); n != 424 || st.Decompressed != 0 || err != nil {
				t.Fatalf("Count(template %d) = %d, %+v, %v; the parent's logquery says 424", fx.template, n, st, err)
			}
		})
	}
}
