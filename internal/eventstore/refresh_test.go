package eventstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// refreshModel drives one store directory through a writer's life and, at
// every "r", holds the kept-and-refreshed Reader equal to a cold OpenReader
// on the same directory. The cold reader is the oracle: the kept one may
// differ from it only in how few bytes it read to get there.
type refreshModel struct {
	t    *testing.T
	dir  string
	s    *Store
	tel  *telemetry.Handle // the kept reader's, so its byte counter is readable
	kept *Reader
	seq  int64

	tearNext bool  // split the store's next file write around a refresh check
	prevSize int64 // directory bytes at the previous check
	prevTorn int64 // bytes of the half-written frame that check saw
}

func (m *refreshModel) open() {
	m.t.Helper()
	s, _, err := Open(Options{
		Dir: m.dir, BlockBytes: 256, SegmentBytes: 2048,
		Seam: seglog.Seam{Wrap: func(f *os.File) seglog.File { return splitFile{f, m} }},
	})
	if err != nil {
		m.t.Fatalf("Open: %v", err)
	}
	m.s = s
}

// splitFile lets a reader arrive in the middle of a write: when armed, the
// next write lands in two halves with a refresh check between them — the
// torn tail a live writer shows, headers included.
type splitFile struct {
	f *os.File
	m *refreshModel
}

func (w splitFile) Sync() error { return w.f.Sync() }

func (w splitFile) Write(p []byte) (int, error) {
	if !w.m.tearNext || len(p) < 2 {
		return w.f.Write(p)
	}
	w.m.tearNext = false
	k := len(p) / 2
	if n, err := w.f.Write(p[:k]); err != nil {
		return n, err
	}
	w.m.check(int64(k))
	n, err := w.f.Write(p[k:])
	return k + n, err
}

func (m *refreshModel) append(n int) {
	m.t.Helper()
	for i := 0; i < n; i++ {
		m.seq++
		ev := Event{Seq: m.seq, Time: m.seq / 7 * int64(time.Millisecond), Template: int32(m.seq % 5), Kind: KindMatched}
		if m.seq%11 == 0 {
			ev.Template, ev.Kind = -1, KindUnmatched
		}
		if err := m.s.Append(ev); err != nil {
			m.t.Fatalf("Append: %v", err)
		}
	}
}

// answers runs the fixed query set on one reader.
func (m *refreshModel) answers(r *Reader) (out []any) {
	m.t.Helper()
	at := func(seq int64) time.Time { return time.Unix(0, seq/7*int64(time.Millisecond)) }
	for _, q := range []Query{
		{},
		{IncludeUnmatched: true},
		{TemplateIDs: []int32{1, 3}},
		{From: at(m.seq / 4), To: at(m.seq / 2), IncludeUnmatched: true},
		{TemplateIDs: []int32{2}, From: at(m.seq / 3), Limit: 5},
	} {
		n, st, err := r.Count(q)
		out = append(out, n, st, err)
		counts, st, err := r.TemplateCounts(q)
		out = append(out, counts, st, err)
		var evs []Event
		st, err = r.Scan(q, func(ev Event) error { evs = append(evs, ev); return nil })
		out = append(out, evs, st, err)
	}
	return out
}

func (m *refreshModel) dirSize() (n int64) {
	names, _ := filepath.Glob(filepath.Join(m.dir, "evt-*.seg"))
	for _, name := range names {
		if st, err := os.Stat(name); err == nil {
			n += st.Size()
		}
	}
	return n
}

// check refreshes the kept reader (opening it on first use) and compares it
// with a cold one. torn is how many bytes of a half-written frame are on
// disk right now.
func (m *refreshModel) check(torn int64) {
	m.t.Helper()
	readBefore := m.tel.Counter("eventstore.reader.refresh_bytes").Value()
	var info ReadInfo
	var err error
	refreshed := m.kept != nil
	if refreshed {
		m.kept, info, err = m.kept.Refresh()
	} else {
		m.kept, info, err = OpenReader(m.dir, ReaderOptions{Telemetry: m.tel})
	}
	if err != nil {
		m.t.Fatalf("kept reader: %v", err)
	}
	size := m.dirSize()
	read := int64(m.tel.Counter("eventstore.reader.refresh_bytes").Value() - readBefore)
	if budget := size - m.prevSize + m.prevTorn; refreshed && read > budget {
		m.t.Fatalf("Refresh read %d bytes; %d were appended since the last one (+ %d of a torn frame to re-read)", read, size-m.prevSize, m.prevTorn)
	}
	m.prevSize, m.prevTorn = size, torn
	m.equalsCold(m.kept, info)
	if torn > 0 && !info.TornTail {
		m.t.Fatalf("a write was in flight and the reader saw no torn tail: %+v", info)
	}
}

func (m *refreshModel) equalsCold(kept *Reader, info ReadInfo) {
	m.t.Helper()
	cold, coldInfo, err := OpenReader(m.dir, ReaderOptions{})
	if err != nil {
		m.t.Fatalf("cold reader: %v", err)
	}
	if !reflect.DeepEqual(info, coldInfo) {
		m.t.Fatalf("kept reader's ReadInfo %+v, cold %+v", info, coldInfo)
	}
	if got, want := m.answers(kept), m.answers(cold); !reflect.DeepEqual(got, want) {
		m.t.Fatalf("kept reader answers\n%+v\ncold\n%+v", got, want)
	}
}

// restart closes the store and reopens it aligned to a sequence number below
// its end — what stream.New does with a restored checkpoint. A reader kept
// from before belongs to the old incarnation: it is dropped, after checking
// that refreshing it anyway is refused when blocks it knew were cut away and
// right when none were.
func (m *refreshModel) restart(keepPermille int64) {
	m.t.Helper()
	if err := m.s.Close(); err != nil {
		m.t.Fatalf("Close: %v", err)
	}
	m.open()
	if _, err := m.s.AlignTo(m.s.LastSeq() * keepPermille / 1000); err != nil {
		m.t.Fatalf("AlignTo: %v", err)
	}
	if m.kept != nil {
		stale, info, err := m.kept.Refresh()
		if err == nil {
			m.equalsCold(stale, info)
		} else if !errors.Is(err, seglog.ErrNotExtension) {
			m.t.Fatalf("Refresh over a cut-back store: %v, want ErrNotExtension", err)
		}
	}
	m.kept, m.seq = nil, m.s.LastSeq()
	m.prevSize, m.prevTorn = m.dirSize(), 0
}

// run executes a script: aN append N events (blocks auto-seal at 256 bytes,
// segments rotate at 2 KiB), f Finalize, r refresh-and-compare, t arm a torn
// write (the next block or segment header is checked half-written), cP
// restart keeping P‰ of the sequence range.
func (m *refreshModel) run(script string) {
	m.t.Helper()
	m.open()
	for _, op := range strings.Fields(script) {
		var arg int
		fmt.Sscanf(op[1:], "%d", &arg)
		switch op[0] {
		case 'a':
			m.append(arg)
		case 'f':
			if err := m.s.Finalize(); err != nil {
				m.t.Fatalf("Finalize: %v", err)
			}
		case 'r':
			m.check(0)
		case 't':
			m.tearNext = true
		case 'c':
			m.restart(int64(arg))
		default:
			m.t.Fatalf("bad op %q", op)
		}
	}
	m.tearNext = false
	if err := m.s.Close(); err != nil {
		m.t.Fatalf("Close: %v", err)
	}
	m.check(0)
}

// TestReaderRefreshModel is the differential for the kept reader: committed
// scripts, each named for the case it pins, then seeded random op sequences.
func TestReaderRefreshModel(t *testing.T) {
	scripts := map[string]string{
		"idle refresh reads nothing":                "a50 f r r r",
		"empty directory, then first block":         "r a5 f r",
		"pending events are invisible until sealed": "a3 r f r",
		"auto-seal without finalize":                "a200 r a200 r",
		"segment rotation between refreshes":        "a100 f r a900 f r a900 f r",
		"torn block under a live writer":            "a40 f r t a10 f r",
		"torn block twice, then clean":              "a40 f t a10 f t a10 f r",
		"torn segment header":                       "a700 r t a400 f r",
		"restart drops blocks, then regrows past":   "a300 f r c500 a600 f r",
		"restart drops a whole segment":             "a1500 f r c100 a100 f r",
		"restart that drops nothing":                "a100 f r c1000 a10 f r",
		"restart to empty":                          "a100 f r c0 a100 f r",
	}
	run := func(t *testing.T, script string) {
		m := &refreshModel{t: t, dir: t.TempDir(), tel: telemetry.New()}
		m.run(script)
		c := m.tel.Snapshot().Counters
		if c["eventstore.reader.opens"]+c["eventstore.reader.refreshes"] == 0 {
			t.Fatalf("script %q never read: %v", script, c)
		}
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) { run(t, script) })
	}
	seeds := 80
	if testing.Short() {
		seeds = 16
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var ops []string
		for i := 0; i < 24; i++ {
			switch r := rng.Intn(20); {
			case r < 7:
				ops = append(ops, fmt.Sprintf("a%d", 1+rng.Intn(400)))
			case r < 10:
				ops = append(ops, "f")
			case r < 16:
				ops = append(ops, "r")
			case r < 18:
				ops = append(ops, "t")
			default:
				ops = append(ops, fmt.Sprintf("c%d", rng.Intn(1001)))
			}
		}
		script := strings.Join(ops, " ")
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { run(t, script) })
	}
}

// TestRefreshIdleCounters pins the count-based oracle the benchmark reads:
// however many times an idle store is refreshed, it was opened once and the
// refreshes read no bytes.
func TestRefreshIdleCounters(t *testing.T) {
	dir := t.TempDir()
	buildSkipCorpus(t, dir)
	tel := telemetry.New()
	r, _, err := OpenReader(dir, ReaderOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		next, _, err := r.Refresh()
		if err != nil || next != r {
			t.Fatalf("idle Refresh returned %p, %v; want the same reader %p", next, err, r)
		}
	}
	c := tel.Snapshot().Counters
	if c["eventstore.reader.opens"] != 1 || c["eventstore.reader.refreshes"] != 40 || c["eventstore.reader.refresh_bytes"] != 0 {
		t.Fatalf("counters after 40 idle refreshes: %v", c)
	}
}
