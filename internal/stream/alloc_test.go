package stream

import (
	"context"
	"fmt"
	"testing"

	"logparse/internal/core"
	"logparse/internal/stream/wal"
)

// allocTemplates covers the line shapes the allocation tests feed in.
func allocTemplates() []core.Template {
	return []core.Template{
		{ID: "T1", Tokens: []string{"connection", "from", "*", "port", "*"}},
		{ID: "T2", Tokens: []string{"session", "*", "closed", "after", "*", "ms"}},
	}
}

// seedTemplates saves tmpls as dir's checkpoint, so an engine built over dir
// starts out matching them, and returns dir.
func seedTemplates(t *testing.T, dir string, tmpls []core.Template) string {
	t.Helper()
	st := &State{Templates: make([]SavedTemplate, len(tmpls))}
	for i, tm := range tmpls {
		st.Templates[i] = SavedTemplate{ID: tm.ID, Tokens: tm.Tokens}
	}
	store, err := NewStore(dir)
	if err == nil {
		err = store.Save(st)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// consumeOne runs one line through the consumer's path as a ring batch of
// one: e.mu once, the line, its event appended, a due checkpoint. The batch
// lives on the stack and views it.data, so the helper itself allocates
// nothing.
func consumeOne(ctx context.Context, e *Engine, it item) {
	b := batch{buf: it.data, n: 1}
	b.nos[0] = it.lineNo
	b.lines[0] = wal.Line{End: len(it.data), Oversized: it.oversized}
	e.consumeBatch(ctx, &b)
}

// TestProcessMatchedPathAllocs pins the consumer's matched path — content
// extraction, tokenisation into the engine's reused buffer, the byte trie
// walk, and the index-addressed count bump — at zero allocations per line.
// This is the per-line cost every ingested line pays; before the byte
// rewrite it was ~5 allocations (line string, token slice, token strings,
// rendered template key), which BenchmarkStreamIngest saw as ~100k
// allocs/op.
func TestProcessMatchedPathAllocs(t *testing.T) {
	eng, err := New(Config{
		CheckpointDir:   seedTemplates(t, t.TempDir(), allocTemplates()),
		CheckpointEvery: -1,
		Retrainer:       &groupMiner{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	matched := item{lineNo: 1, data: []byte("connection from 10.0.0.9 port 1042")}
	empty := item{lineNo: 1, data: []byte("   \t  ")}

	cases := []struct {
		name string
		it   item
	}{
		{"matched", matched},
		{"empty", empty},
	}
	for _, tc := range cases {
		it := tc.it
		fn := func() { consumeOne(ctx, eng, it) }
		fn() // warm the engine's token buffer
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op in process, want 0", tc.name, allocs)
		}
	}
	if st := eng.Stats(); st.Matched == 0 || st.Unparsed != 0 || st.UnmatchedBuffered != 0 {
		t.Fatalf("lines did not take the matched path: %+v", st)
	}
}

// TestPushBatchPerLineAllocBudget asserts the push-mode admission overhead:
// PushBatch over matched lines must stay well under one allocation per
// line, end to end — admission copies into pooled batches, one ring insert
// per batch, and the concurrent consumer's zero-alloc matched path all share
// the one global allocation counter AllocsPerRun reads. The 0.5 budget
// leaves room for occasional batch-pool refills (a batch and its buffer's
// growth when the GC clears the pool) without tolerating any per-line
// regression.
func TestPushBatchPerLineAllocBudget(t *testing.T) {
	eng, err := New(Config{
		CheckpointDir:   seedTemplates(t, t.TempDir(), allocTemplates()),
		CheckpointEvery: -1,
		Retrainer:       &groupMiner{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	if err := eng.WaitServing(ctx); err != nil {
		t.Fatal(err)
	}

	const batchSize = 256
	lines := make([][]byte, batchSize)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("connection from 10.0.0.%d port %d", i%50, 1000+i))
	}
	push := func() {
		res, err := eng.PushBatch(context.Background(), lines)
		if err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		if res.Accepted != batchSize {
			t.Fatalf("accepted %d of %d", res.Accepted, batchSize)
		}
	}
	for i := 0; i < 4; i++ {
		push() // warm the batch pool and the consumer
	}
	perLine := testing.AllocsPerRun(50, push) / batchSize
	t.Logf("PushBatch: %.3f allocs per line", perLine)
	if perLine > 0.5 {
		t.Errorf("PushBatch: %.3f allocs per line, budget 0.5", perLine)
	}

	eng.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if st := eng.Stats(); st.Unparsed != 0 || st.UnmatchedBuffered != 0 {
		t.Fatalf("lines did not take the matched path: %+v", st)
	}
}
