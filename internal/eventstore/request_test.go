package eventstore

import (
	"cmp"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestParseRequest pins the query vocabulary GET /v1/query and logquery
// share: defaults, the row bound that belongs to the chosen mode and no
// other, and an error naming the value at fault.
func TestParseRequest(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in      map[string]string
		want    Request
		wantErr string
	}{
		{in: nil, want: Request{Mode: "count"}},
		{in: map[string]string{"n": "zero", "limit": "-3"}, want: Request{Mode: "count"}}, // count reads neither
		{in: map[string]string{"mode": "top"}, want: Request{Mode: "top", Top: 10}},
		{in: map[string]string{"mode": "top", "n": "3", "limit": "x"}, want: Request{Mode: "top", Top: 3}},
		{in: map[string]string{"mode": "list", "unmatched": "true"},
			want: Request{Mode: "list", Query: Query{Limit: 100, IncludeUnmatched: true}}},
		{in: map[string]string{"mode": "list", "limit": "7", "template": "3, 9", "from": "2026-08-08T00:00:00Z", "to": "2026-08-08T01:00:00Z"},
			want: Request{Mode: "list", Query: Query{Limit: 7, TemplateIDs: []int32{3, 9}, From: t0, To: t0.Add(time.Hour)}}},
		{in: map[string]string{"mode": "tail"}, wantErr: "mode"},
		{in: map[string]string{"template": "3,x"}, wantErr: "template"},
		{in: map[string]string{"from": "yesterday"}, wantErr: "from"},
		{in: map[string]string{"to": "12:00"}, wantErr: "to"},
		{in: map[string]string{"mode": "top", "n": "0"}, wantErr: "n"},
		{in: map[string]string{"mode": "list", "limit": "many"}, wantErr: "limit"},
	} {
		got, err := ParseRequest(func(name string) string { return tc.in[name] })
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr+":") {
				t.Errorf("ParseRequest(%v) error = %v, want one naming %q", tc.in, err, tc.wantErr)
			}
		case err != nil || !reflect.DeepEqual(got, tc.want):
			t.Errorf("ParseRequest(%v) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

// TestReaderRun holds each mode of Run to the primitive it fronts, and top's
// order — most frequent first, ties by ascending id — and bound.
func TestReaderRun(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendSynth(t, s, 0, 500) // templates 0..7 rotating, every 11th line unmatched
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rd, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{IncludeUnmatched: true}

	count, err := rd.Run(Request{Mode: "count", Query: q}, nil)
	if err != nil || count.Count == nil || *count.Count != 500 || count.Events != nil || count.Templates != nil {
		t.Fatalf("count = %+v, %v; want 500 and nothing else", count, err)
	}

	counts, _, err := rd.TemplateCounts(q)
	if err != nil {
		t.Fatal(err)
	}
	names := map[int32]string{2: "two"}
	top, err := rd.Run(Request{Mode: "top", Query: q, Top: 4}, names)
	if err != nil || len(top.Templates) != 4 || top.Count != nil {
		t.Fatalf("top = %+v, %v; want 4 rows", top, err)
	}
	for i, row := range top.Templates {
		if row.Count != counts[row.Template] || row.Name != names[row.Template] {
			t.Errorf("top row %d = %+v, want count %d and name %q", i, row, counts[row.Template], names[row.Template])
		}
		if i > 0 {
			prev := top.Templates[i-1]
			if prev.Count < row.Count || prev.Count == row.Count && prev.Template >= row.Template {
				t.Errorf("top rows %d, %d out of order: %+v then %+v", i-1, i, prev, row)
			}
		}
	}
	for id, c := range counts { // nothing outside the rows beats the last row
		listed := slices.ContainsFunc(top.Templates, func(r TemplateCount) bool { return r.Template == id })
		if last := top.Templates[3]; c > last.Count && !listed {
			t.Errorf("template %d (count %d) is missing from the top 4 ending at %+v", id, c, last)
		}
	}

	q.Limit = 12
	list, err := rd.Run(Request{Mode: "list", Query: q}, names)
	if err != nil || len(list.Events) != 12 {
		t.Fatalf("list = %d rows, %v; want 12", len(list.Events), err)
	}
	for i, row := range list.Events {
		ev := synthEvent(i)
		want := Row{Seq: ev.Seq, Time: time.Unix(0, ev.Time).UTC().Format(time.RFC3339Nano),
			Template: ev.Template, Name: names[ev.Template], Kind: ev.Kind.String(), RawOff: ev.RawOff}
		if row != want {
			t.Errorf("list row %d = %+v, want %+v", i, row, want)
		}
	}

	if _, err := rd.Run(Request{Mode: "tail"}, nil); err == nil {
		t.Error("Run accepted an unknown mode")
	}
}

// TestTopSelection holds top's bounded selection to a full sort of every
// template, over seeded random tallies: dense and sparse ids, the −1
// bucket, counts drawn from a narrow range so that ties abound, and row
// bounds from none through the template count to 2^31−1 — ten and half the
// templates among them, where rows replace the heap's root again and again.
func TestTopSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		tl := newTally()
		for i, adds := 0, rng.Intn(300); i < adds; i++ {
			var id int32
			switch rng.Intn(4) {
			case 0:
				id = int32(rng.Intn(50))
			case 1:
				id = int32(rng.Intn(1 << 16))
			case 2:
				id = 1<<16 + rng.Int31n(math.MaxInt32-1<<16)
			default:
				id = -1
			}
			tl.add(id, 1+rng.Int63n(4))
		}
		names := map[int32]string{-1: "unmatched", 3: "three"}
		var want []TemplateCount
		for id, c := range tl.counts() {
			want = append(want, TemplateCount{Template: id, Count: c, Name: names[id]})
		}
		slices.SortFunc(want, func(a, b TemplateCount) int {
			return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Template, b.Template))
		})
		T := len(want)
		for _, n := range []int{0, 1, 10, T / 2, T - 1, T, T + 1, math.MaxInt32} {
			got := tl.top(n, names)
			if wantN := want[:max(0, min(n, T))]; len(got) != len(wantN) || len(got) > 0 && !reflect.DeepEqual(got, wantN) {
				t.Fatalf("trial %d, %d templates, n=%d:\ngot  %v\nwant %v", trial, T, n, got, wantN)
			}
		}
	}
}

// TestTopAllocs pins that top's row bound never sizes an allocation: the
// widest bound over ten templates allocates the ten rows it returns.
func TestTopAllocs(t *testing.T) {
	tl := newTally()
	for id := int32(0); id < 10; id++ {
		tl.add(id, int64(id%3+1))
	}
	var rows []TemplateCount
	if allocs := testing.AllocsPerRun(100, func() { rows = tl.top(math.MaxInt32, nil) }); allocs != 1 {
		t.Errorf("top(2^31−1) over 10 templates: %v allocations, want 1", allocs)
	}
	if len(rows) != 10 || cap(rows) != 10 {
		t.Errorf("top(2^31−1) over 10 templates: %d rows, capacity %d; want 10, 10", len(rows), cap(rows))
	}
}

// TestRowsAppendJSONAsMarshal holds Row.AppendJSON and
// TemplateCount.AppendJSON to json.Marshal's bytes. Every field is set in
// turn, by reflection, to a value it may take, alone and with all the
// others, so a field added to either type must be encoded by hand too.
func TestRowsAppendJSONAsMarshal(t *testing.T) {
	odd := "<a href=\"x\">&amp;</a> \\ \u2028\u2029 \x01\x1f \xff tab\there \"stats\":"
	check := func(v any, appendJSON func([]byte) []byte) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON of %+v = %s, want prefix%s", v, got, want)
		}
	}
	// set gives field f of *p its i-th sample value.
	set := func(f reflect.Value, i int) {
		switch f.Kind() {
		case reflect.String:
			f.SetString([]string{odd, "matched", "2026-08-08T00:00:00Z"}[i%3])
		case reflect.Int32, reflect.Int64:
			f.SetInt([]int64{-1, 7, math.MaxInt32}[i%3])
		default:
			t.Fatalf("no sample values for a %s field", f.Kind())
		}
	}
	for _, tc := range []struct {
		zero       any
		appendJSON func(v any) func([]byte) []byte
	}{
		{&Row{}, func(v any) func([]byte) []byte { return v.(*Row).AppendJSON }},
		{&TemplateCount{}, func(v any) func([]byte) []byte { return v.(*TemplateCount).AppendJSON }},
	} {
		typ := reflect.TypeOf(tc.zero).Elem()
		all := reflect.New(typ)
		check(all.Interface(), tc.appendJSON(all.Interface()))
		for i := range typ.NumField() {
			for s := range 3 {
				one := reflect.New(typ)
				set(one.Elem().Field(i), s)
				check(one.Interface(), tc.appendJSON(one.Interface()))
				set(all.Elem().Field(i), s+i)
				check(all.Interface(), tc.appendJSON(all.Interface()))
			}
		}
	}
}
