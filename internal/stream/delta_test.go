package stream

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"logparse/internal/faultinject"
	"logparse/internal/gen"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/spell"
	"logparse/internal/seglog"
	"logparse/internal/stream/wal"
)

// chainMode is one of the three engine modes the delta chain must recover
// under, over a stream that keeps founding and generalising templates.
type chainMode struct {
	name  string
	lines []string
	cfg   func(dir string) Config
}

const chainEvery = 37 // save k lands after line 37k

func chainModes(t *testing.T) []chainMode {
	t.Helper()
	cat, err := gen.ByName("Thunderbird")
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, m := range cat.Generate(17, 900) {
		fresh = append(fresh, m.Content)
	}
	mode := func(name string, lines []string, set func(*Config)) chainMode {
		return chainMode{name, lines, func(dir string) Config {
			cfg := Config{Open: memOpen(lines), CheckpointDir: dir, CheckpointEvery: chainEvery, RetrainBatch: 24}
			set(&cfg)
			return cfg
		}}
	}
	return []chainMode{
		mode("retrain", synthLines(900, 41), func(c *Config) { c.Retrainer = &groupMiner{} }),
		mode("drain", fresh, func(c *Config) { c.Online = drain.NewStream(drain.Options{}) }),
		mode("spell", fresh, func(c *Config) { c.Online = spell.NewStream(spell.Options{}) }),
	}
}

// crashPlan scripts one engine life that ends in a crash.
type crashPlan struct {
	// bases lists the saves (1-based) besides the first that compact the
	// chain into a new base; every other save is a delta alone.
	bases []int
	// kill is the line after which the engine dies (no closing checkpoint).
	kill int64
	// hook, when non-nil, sees every seam point with the number of the save
	// in progress; a non-nil return freezes that save there and kills the
	// engine on the spot.
	hook func(point string, save int) error
	// wrap, when non-nil, wraps every file a save writes.
	wrap func(f *os.File, save *int) seglog.File
}

// crash runs cfg's engine under the plan and returns the corpse.
func crash(t *testing.T, cfg Config, p crashPlan) *Engine {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var e *Engine
	save := 0
	cfg.CheckpointSeam.Hook = func(point string) error {
		if point == "save" {
			save++
			e.store.basePayload = math.MaxInt64
			if save == 1 || slices.Contains(p.bases, save) {
				e.store.basePayload = 0
			}
		}
		if p.hook != nil {
			if err := p.hook(point, save); err != nil {
				cancel()
				return err
			}
		}
		return nil
	}
	if p.wrap != nil {
		cfg.CheckpointSeam.Wrap = func(f *os.File) seglog.File { return p.wrap(f, &save) }
	}
	cfg.AfterLine = func(n int64) {
		if n == p.kill {
			cancel()
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled", err)
	}
	return e
}

// deltaSegments lists dir's delta-log segment files, oldest first.
func deltaSegments(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, deltaSpec.Prefix+"-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	return names
}

// flipInRecord flips one payload byte of generation gen's delta record.
func flipInRecord(t *testing.T, dir string, gen uint64) {
	t.Helper()
	for _, path := range deltaSegments(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := deltaSpec.HeaderSize()
		wal.DecodeSegment(data, func(seq uint64, payload []byte) error {
			if seq == gen {
				data[off+16+len(payload)/2] ^= 0xff
			}
			off += 16 + len(payload)
			return nil
		})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func truncateBy(t *testing.T, path string, by int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-by); err != nil {
		t.Fatal(err)
	}
}

// failingSnapshot is a learner whose Snapshot fails on demand.
type failingSnapshot struct {
	OnlineParser
	fail bool
}

func (f *failingSnapshot) Snapshot() ([]byte, error) {
	if f.fail {
		return nil, errors.New("snapshot refused")
	}
	return f.OnlineParser.Snapshot()
}

// TestCheckpointChainFaultMatrix damages a checkpoint directory in every way
// the chain is specified to survive, under each engine mode, and requires
// the stated recovery point — never more than the stated loss — and
// convergence to the uninterrupted digest.
func TestCheckpointChainFaultMatrix(t *testing.T) {
	const kill = 5*chainEvery + 3 // five saves land, every one in the chain
	type want struct {
		from   string
		offset int64 // where recovery resumes
		deltas int
		end    any   // type of LoadInfo.ChainEnd, nil for a clean end
		errors int64 // checkpoint errors the crashed life counted
	}
	faults := []struct {
		name string
		plan crashPlan
		// damage is applied to the corpse's directory before recovery.
		damage func(t *testing.T, dir string)
		want   want
	}{
		{
			name:   "torn delta tail",
			plan:   crashPlan{kill: kill},
			damage: func(t *testing.T, dir string) { segs := deltaSegments(t, dir); truncateBy(t, segs[len(segs)-1], 7) },
			want:   want{from: "current", offset: 4 * chainEvery, deltas: 3, end: &seglog.TornTailError{}},
		},
		{
			name:   "corrupt delta mid-chain",
			plan:   crashPlan{kill: kill},
			damage: func(t *testing.T, dir string) { flipInRecord(t, dir, 3) },
			want:   want{from: "current", offset: 2 * chainEvery, deltas: 1, end: &seglog.CorruptError{}},
		},
		{
			name: "torn current base, intact chain",
			plan: crashPlan{kill: kill, bases: []int{3}},
			damage: func(t *testing.T, dir string) {
				truncateBy(t, filepath.Join(dir, currentName), 40)
			},
			want: want{from: "previous", offset: 5 * chainEvery, deltas: 4},
		},
		{
			name: "both bases corrupt",
			plan: crashPlan{kill: kill, bases: []int{3}},
			damage: func(t *testing.T, dir string) {
				truncateBy(t, filepath.Join(dir, currentName), 40)
				truncateBy(t, filepath.Join(dir, prevName), 40)
			},
			want: want{from: "reset"},
		},
		{
			name: "crash between delta append and base publish",
			plan: crashPlan{bases: []int{3}, hook: func(point string, save int) error {
				if point == "base" && save == 3 {
					return faultinject.ErrInjectedCrash
				}
				return nil
			}},
			want: want{from: "current", offset: 3 * chainEvery, deltas: 2, errors: 1},
		},
		{
			name: "crash between base publish and head GC",
			plan: crashPlan{bases: []int{3}, hook: func(point string, save int) error {
				if point == "rotate" && save == 3 {
					return faultinject.ErrInjectedCrash
				}
				return nil
			}},
			damage: func(t *testing.T, dir string) {
				if n := len(deltaSegments(t, dir)); n != 2 {
					t.Fatalf("%d delta segments after the frozen GC, want the superseded one and the sealed one", n)
				}
			},
			want: want{from: "current", offset: 3 * chainEvery},
		},
		{
			// A failed save is retried after the next line. The torn record
			// never lands, so the retry must carry both intervals.
			name: "delta append cut short (disk full), retried",
			plan: crashPlan{kill: 3*chainEvery + 2, wrap: func(f *os.File, save *int) seglog.File {
				c := faultinject.NewWALCrashFile(f)
				c.TearAfter = 30
				c.Armed = func() bool { return *save == 3 }
				return c
			}},
			want: want{from: "current", offset: 3*chainEvery + 1, deltas: 2, errors: 1},
		},
		{
			// The record lands whole although the save reports failure: the
			// retry repeats its changes on top of it.
			name: "delta fsync fails, retried",
			plan: crashPlan{kill: 3*chainEvery + 2, wrap: func(f *os.File, save *int) seglog.File {
				c := faultinject.NewWALCrashFile(f)
				c.SyncErrAt = 1
				c.Armed = func() bool { return *save == 3 }
				return c
			}},
			want: want{from: "current", offset: 3*chainEvery + 1, deltas: 3, errors: 1},
		},
	}
	for _, m := range chainModes(t) {
		wantDigest, _ := runToEnd(t, m.cfg(t.TempDir()))
		for _, f := range faults {
			t.Run(m.name+"/"+f.name, func(t *testing.T) {
				dir := t.TempDir()
				corpse := crash(t, m.cfg(dir), f.plan)
				if got := corpse.Stats().CheckpointErrors; got != f.want.errors {
					t.Fatalf("the crashed life counted %d checkpoint errors, want %d", got, f.want.errors)
				}
				if f.damage != nil {
					f.damage(t, dir)
				}
				checkRecovery(t, m, dir, f.want.from, f.want.offset, f.want.deltas, f.want.end, wantDigest)
			})
		}
	}
}

// checkRecovery reads dir the way logquery does, then resumes an engine over
// it: the read changes nothing on disk and names every template, both agree
// on the recovery point, the first save afterwards rises above every
// generation on disk, and the resumed run ends at the uninterrupted digest
// with a clean chain.
func checkRecovery(t *testing.T, m chainMode, dir, from string, offset int64, deltas int, end any, wantDigest string) {
	t.Helper()
	listing := func() string {
		var b strings.Builder
		files, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, f := range files {
			fi, _ := os.Stat(f)
			fmt.Fprintf(&b, "%s %d\n", f, fi.Size())
		}
		return b.String()
	}
	before := listing()
	store, _ := NewStore(dir)
	st, info, err := store.Load()
	var all *AllCorruptError
	switch {
	case from == "reset":
		if !errors.As(err, &all) {
			t.Fatalf("Load = %v, want an AllCorruptError", err)
		}
	case err != nil:
		t.Fatal(err)
	default:
		names, err := st.TemplateNames()
		if err != nil || len(names) != len(st.Templates) {
			t.Fatalf("TemplateNames over base + deltas: %d names for %d templates (%v)", len(names), len(st.Templates), err)
		}
		if info.Source != from || st.Offset != offset || info.Deltas != deltas {
			t.Fatalf("Load = %q + %d deltas at offset %d, want %q + %d at %d (chain end: %v)",
				info.Source, info.Deltas, st.Offset, from, deltas, offset, info.ChainEnd)
		}
		if end == nil && info.ChainEnd != nil || end != nil && reflect.TypeOf(info.ChainEnd) != reflect.TypeOf(end) {
			t.Fatalf("chain ended with %v, want %T", info.ChainEnd, end)
		}
	}
	if after := listing(); after != before {
		t.Fatalf("Load changed the directory:\n%s\nwas\n%s", after, before)
	}
	var onDisk uint64 // the newest generation any file still names
	seglog.Scan(&deltaSpec, dir, seglog.ScanInfo{}, wal.VerifyRecord, func(_ int, _ int64, fr seglog.Frame, _ []byte) error {
		onDisk = max(onDisk, fr.MinSeq)
		return nil
	})
	if st != nil {
		onDisk = max(onDisk, st.Gen)
	}

	resumed, err := New(m.cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s := resumed.Stats(); s.RecoveredFrom != from || s.Offset != offset || s.DeltasSinceBase != deltas {
		t.Fatalf("recovered %q + %d deltas at offset %d, want %q + %d at %d", s.RecoveredFrom, s.DeltasSinceBase, s.Offset, from, deltas, offset)
	}
	if err := resumed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := resumed.Stats(); s.CheckpointGen <= onDisk || s.DeltasSinceBase != 0 {
		t.Fatalf("first save of the recovered engine: generation %d + %d deltas, want a base above generation %d", s.CheckpointGen, s.DeltasSinceBase, onDisk)
	}
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Digest(); got != wantDigest {
		t.Fatalf("resumed digest %s, want the uninterrupted %s", got, wantDigest)
	}
	store, _ = NewStore(dir)
	if st, info, err := store.Load(); err != nil || info.ChainEnd != nil || st.Offset != int64(len(m.lines)) {
		t.Fatalf("after the resumed run Load = %+v, %+v, %v; want a clean chain at offset %d", st, info, err, len(m.lines))
	}
}

// TestSnapshotFailureAtRebaseKeepsTheDelta: the learner refusing to
// serialise fails the checkpoint, but the delta that save already made
// durable still counts — recovery resumes at its offset.
func TestSnapshotFailureAtRebaseKeepsTheDelta(t *testing.T) {
	for _, m := range chainModes(t)[1:] {
		t.Run(m.name, func(t *testing.T) {
			wantDigest, _ := runToEnd(t, m.cfg(t.TempDir()))
			dir := t.TempDir()
			cfg := m.cfg(dir)
			learner := &failingSnapshot{OnlineParser: cfg.Online}
			cfg.Online = learner
			corpse := crash(t, cfg, crashPlan{bases: []int{3}, kill: 3*chainEvery + 1, hook: func(point string, save int) error {
				learner.fail = save == 3
				return nil
			}})
			if s := corpse.Stats(); s.CheckpointErrors != 1 || s.Checkpoints != 2 || s.CheckpointGen != 3 {
				t.Fatalf("%d errors, %d checkpoints, generation %d; want 1, 2, 3", s.CheckpointErrors, s.Checkpoints, s.CheckpointGen)
			}
			checkRecovery(t, m, dir, "current", 3*chainEvery, 2, nil, wantDigest)
		})
	}
}

// TestDeltaBytesAboveBaseStayWithinOneRecordOfIt pins the re-base rule from
// the disk: whatever the stream, the delta records newer than the current
// base never outweigh that base's payload by more than one record.
func TestDeltaBytesAboveBaseStayWithinOneRecordOfIt(t *testing.T) {
	for _, m := range chainModes(t) {
		t.Run(m.name, func(t *testing.T) {
			cfg := m.cfg(t.TempDir())
			var e *Engine
			saves, bases := int64(0), map[uint64]bool{}
			cfg.AfterLine = func(int64) { // the consumer's goroutine: no save is in flight
				if e.checkpoints == saves {
					return
				}
				saves = e.checkpoints
				base, err := loadFile(filepath.Join(cfg.CheckpointDir, currentName))
				if err != nil {
					t.Fatal(err)
				}
				bases[base.Gen] = true
				fi, _ := os.Stat(filepath.Join(cfg.CheckpointDir, currentName))
				payload := fi.Size() - int64(len(checkpointMagic)+len("\nsha256 \n")+64)
				var above, largest int64
				seglog.Scan(&deltaSpec, cfg.CheckpointDir, seglog.ScanInfo{}, wal.VerifyRecord, func(_ int, _ int64, fr seglog.Frame, _ []byte) error {
					if fr.MinSeq > base.Gen {
						above += int64(fr.Size)
						largest = max(largest, int64(fr.Size))
					}
					return nil
				})
				if above > payload+largest {
					t.Fatalf("after save %d: %d delta bytes above base generation %d, whose payload is %d (largest record %d)", saves, above, base.Gen, payload, largest)
				}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if int64(len(bases)) >= saves || len(bases) < 2 {
				t.Fatalf("%d bases over %d saves: the rule should re-base sometimes, not always", len(bases), saves)
			}
		})
	}
}

// TestParentCheckpointDirectoryResumes: a directory as the commit before the
// delta chain left it — bases without a generation, no delta log — loads as
// a base with zero deltas and resumes to the uninterrupted digest, and the
// first delta written on top of it is one recovery can apply.
func TestParentCheckpointDirectoryResumes(t *testing.T) {
	for _, m := range chainModes(t) {
		t.Run(m.name, func(t *testing.T) {
			wantDigest, _ := runToEnd(t, m.cfg(t.TempDir()))
			dir := t.TempDir()
			crash(t, m.cfg(dir), crashPlan{kill: 5*chainEvery + 3})
			store, _ := NewStore(dir)
			st, _, err := store.Load()
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range deltaSegments(t, dir) {
				os.Remove(seg)
			}
			os.Remove(filepath.Join(dir, prevName))
			payload, _ := json.Marshal(st)
			payload = []byte(strings.Replace(string(payload), fmt.Sprintf(`"gen":%d,`, st.Gen), "", 1))
			head := fmt.Sprintf("%s\nsha256 %x\n", checkpointMagic, sha256.Sum256(payload))
			if err := os.WriteFile(filepath.Join(dir, currentName), append([]byte(head), payload...), 0o644); err != nil {
				t.Fatal(err)
			}

			// One more save, then a crash before it is compacted: generation
			// 1 follows the parent's generation-less base.
			crash(t, m.cfg(dir), crashPlan{kill: 6*chainEvery + 3, hook: func(point string, save int) error {
				if point == "base" {
					return faultinject.ErrInjectedCrash
				}
				return nil
			}})
			checkRecovery(t, m, dir, "current", 6*chainEvery, 1, nil, wantDigest)
		})
	}
}

// modelLine is the op-sequence model's stream, a pure function of the line
// number so a replay after a kill feeds what the first life saw. Its shapes
// found groups, generalise them once and again, and repeat.
func modelLine(n int64) string {
	shapes := []string{
		"alpha beta gamma delta",
		"alpha beta gamma delta",
		"alpha zeta gamma delta", // generalises the first group
		"alpha zeta eta delta",   // and again
		"one two three",
		"one two four", // founded and generalised within two lines
		"session opened for user root",
		"session closed for user admin",
		"alpha beta gamma delta",
		"lone",
	}
	k := n - 1
	line := shapes[k%int64(len(shapes))]
	if round := k / int64(len(shapes)); round > 0 {
		line += fmt.Sprintf(" round%c tail", 'a'+rune(round%7)) // later rounds found and generalise longer groups
	}
	return line
}

// savedModel is everything a checkpoint must bring back, captured from the
// live engine right after a successful save.
type savedModel struct {
	Offset    int64
	Counters  Counters
	Counts    []int64
	Names     []string
	Unmatched []string
	Learner   any // the learner's Snapshot, decoded
}

func decoded(t *testing.T, data []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// runModel interprets one op script against a real engine and a model of
// what each save must restore: "lN" learns N lines, "s" saves, "b" saves
// with a forced re-base, "k" kills and reopens, "t" kills, tears the tail of
// the newest delta segment and reopens. pinned leaves every other save a
// delta alone; otherwise the byte rule decides.
func runModel(t *testing.T, m chainMode, script string, pinned bool) {
	t.Helper()
	const total = 120
	dir := t.TempDir()
	open := func() *Engine {
		cfg := m.cfg(dir)
		cfg.CheckpointEvery = -1
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("script %q: reopen: %v", script, err)
		}
		return e
	}
	ctx := context.Background()
	learn := func(e *Engine, k int) {
		for ; k > 0 && e.offset < total; k-- {
			e.process(ctx, item{lineNo: e.offset + 1, data: []byte(modelLine(e.offset + 1))})
		}
	}
	history := map[uint64]savedModel{}
	isBase := map[uint64]bool{}
	var last uint64
	save := func(e *Engine, rebase bool) {
		if rebase {
			rebaseNext(e)
		} else if pinned && e.store.basePayload != 0 {
			e.store.basePayload = math.MaxInt64
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("script %q: save: %v", script, err)
		}
		tmpls, counts := e.Result()
		sm := savedModel{Offset: e.offset, Counters: e.ctrs, Counts: counts, Unmatched: slices.Clone(e.unmatched)}
		for _, tm := range tmpls {
			sm.Names = append(sm.Names, tm.String())
		}
		if e.online != nil {
			blob, _ := e.online.Snapshot()
			sm.Learner = decoded(t, blob)
		}
		last = e.store.gen
		history[last], isBase[last] = sm, e.store.sinceBase == 0
	}
	check := func(want uint64) {
		store, _ := NewStore(dir)
		st, info, err := store.Load()
		if err != nil {
			t.Fatalf("script %q: Load: %v", script, err)
		}
		if want == 0 {
			if st != nil {
				t.Fatalf("script %q: Load found generation %d before any save survived", script, st.Gen)
			}
			return
		}
		if st == nil || st.Gen != want {
			t.Fatalf("script %q: Load = %+v (%+v), want generation %d", script, st, info, want)
		}
		got := savedModel{Offset: st.Offset, Counters: st.Counters, Unmatched: st.Unmatched}
		for _, tm := range st.Templates {
			got.Counts = append(got.Counts, tm.Count)
		}
		if got.Names, err = st.TemplateNames(); err != nil {
			t.Fatalf("script %q: %v", script, err)
		}
		if st.Online != nil {
			got.Learner = decoded(t, st.Online.Data)
		}
		model := history[want]
		if len(got.Unmatched) == 0 && len(model.Unmatched) == 0 {
			got.Unmatched, model.Unmatched = nil, nil
		}
		if len(got.Names) == 0 && len(model.Names) == 0 {
			got.Names, got.Counts, model.Names, model.Counts = nil, nil, nil, nil
		}
		if !reflect.DeepEqual(got, model) {
			t.Fatalf("script %q: generation %d restored\n%+v\nthe engine had saved\n%+v", script, want, got, model)
		}
	}

	e := open()
	for _, op := range strings.Fields(script) {
		switch op[0] {
		case 'l':
			var k int
			fmt.Sscanf(op[1:], "%d", &k)
			learn(e, k)
		case 's', 'b':
			save(e, op[0] == 'b')
		case 'k', 't':
			want := last
			if segs := deltaSegments(t, dir); op[0] == 't' && len(segs) > 0 {
				truncateBy(t, segs[len(segs)-1], 5)
				// The newest record is gone; only a base of that very
				// generation, or the record living in an older segment
				// (sealed by a base since), keeps the save.
				var newest uint64
				seglog.Scan(&deltaSpec, dir, seglog.ScanInfo{}, wal.VerifyRecord, func(_ int, _ int64, fr seglog.Frame, _ []byte) error {
					newest = fr.MinSeq
					return nil
				})
				for want > newest && !isBase[want] {
					want--
				}
			}
			check(want)
			e = open()
			if e.store.gen != want || e.offset != history[want].Offset {
				t.Fatalf("script %q: reopened at generation %d offset %d, want %d and %d", script, e.store.gen, e.offset, want, history[want].Offset)
			}
			last = want
		default:
			t.Fatalf("script %q: unknown op %q", script, op)
		}
	}
	learn(e, total)
	cfg := m.cfg(t.TempDir())
	cfg.CheckpointEvery = -1
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	learn(ref, total)
	if got, want := e.Digest(), ref.Digest(); got != want {
		t.Fatalf("script %q: resumed run ends at digest %s, uninterrupted at %s", script, got, want)
	}
}

// TestCheckpointChainModel is the differential: op sequences against the
// model, the committed scripts first — each named for the case it pins —
// then seeded random ones, half of them with the byte rule deciding the
// re-bases.
func TestCheckpointChainModel(t *testing.T) {
	scripts := map[string]string{
		"template generalised twice between bases":      "l2 s l1 s l1 s k l9 s k",
		"group founded and generalised in one interval": "l4 s l2 s k",
		"two saves at one offset":                       "l3 s s k s s k",
		"empty delta":                                   "s k l2 s s s k",
		"first save of a recovered engine":              "l3 s k l2 s k l1 s t",
		"torn tail of a delta":                          "l2 s l1 s l1 s t l2 s k",
		"torn tail of the delta a base compacted":       "l5 s l5 b t l5 s k",
		"torn tail twice":                               "l3 s l3 s l3 s t t l3 s k",
		"re-base then deltas then kill":                 "l7 s l7 b l7 s l7 s k l7 b k",
		"kill with unsaved lines":                       "l5 s l5 k l5 s l5 k",
	}
	for _, m := range chainModes(t) {
		m.cfg = func(inner func(string) Config) func(string) Config {
			return func(dir string) Config {
				cfg := inner(dir)
				cfg.RetrainBatch = 4
				if cfg.Retrainer != nil {
					cfg.Retrainer = &groupMiner{minSupport: 2}
				}
				return cfg
			}
		}(m.cfg)
		t.Run(m.name, func(t *testing.T) {
			for name, script := range scripts {
				t.Run(name, func(t *testing.T) { runModel(t, m, script, true) })
			}
			seeds := 60
			if testing.Short() {
				seeds = 12
			}
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				var ops []string
				for i := 0; i < 14; i++ {
					switch r := rng.Intn(10); {
					case r < 4:
						ops = append(ops, fmt.Sprintf("l%d", 1+rng.Intn(9)))
					case r < 7:
						ops = append(ops, "s")
					case r < 8:
						ops = append(ops, "b")
					case r < 9:
						ops = append(ops, "k")
					default:
						ops = append(ops, "t")
					}
				}
				runModel(t, m, strings.Join(ops, " "), seed%2 == 0)
			}
		})
	}
}

// FuzzCheckpointDelta: arbitrary bytes offered as a delta record never panic
// and are all-or-nothing — a refused record leaves the state as it was, an
// accepted one leaves a state the engine's own validation accepts.
func FuzzCheckpointDelta(f *testing.F) {
	valid, _ := json.Marshal(testDelta(20))
	founding, _ := json.Marshal(&delta{Offset: 12, NumTemplates: 3, Counts: [][2]int64{{2, 1}},
		Templates: []templateDelta{{Index: 1, Tokens: []string{"error", "*", "*"}}, {Index: 2, ID: "S3", Tokens: []string{"new", "group"}}}})
	for _, seed := range [][]byte{valid, founding, []byte(`{"num_templates":1e9}`), []byte(`{"offset":-1}`),
		[]byte(`{"num_templates":3,"templates":[{"index":3,"tokens":["x"]}]}`), []byte(`{"num_templates":2,"counts":[[2,1]]}`), []byte("{"), nil} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, payload []byte, online bool) {
		st := testState(10)
		st.Gen = 4
		if online {
			st.Online = &OnlineState{Parser: "Drain", Data: []byte(`{"depth":4,"templates":[["connection","from","*"],["error","*","retry"]]}`)}
			st.Templates[0].Tokens, st.Templates[1].Tokens = nil, nil
		}
		before, _ := json.Marshal(st)
		c := chain{st: st}
		err := c.apply(5, payload)
		if ferr := c.finish(); ferr != nil {
			t.Fatalf("finish: %v", ferr)
		}
		after, _ := json.Marshal(st)
		if err != nil {
			if string(after) != string(before) {
				t.Fatalf("refused delta (%v) changed the state:\n%s\nwas\n%s", err, after, before)
			}
			return
		}
		if st.Gen != 5 {
			t.Fatalf("accepted delta left generation %d", st.Gen)
		}
		if verr := validateState(st); verr != nil {
			t.Fatalf("accepted delta left an invalid state: %v", verr)
		}
		if names, nerr := st.TemplateNames(); nerr != nil || len(names) != len(st.Templates) {
			t.Fatalf("accepted delta left %d names for %d templates (%v)", len(names), len(st.Templates), nerr)
		}
	})
}
