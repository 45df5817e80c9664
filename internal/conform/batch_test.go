package conform

import (
	"context"
	"strings"
	"testing"

	"logparse/internal/stream"
)

// The batched ingest path joins the conformance matrix here: pushing a
// dataset through Engine.PushBatch must be observationally equivalent to
// pushing it in one-line batches and to feeding it in file mode
// through Feed — same canonical stream digest, same re-applied batch parse
// digest, same counters. Batching is an admission optimisation; the moment
// it moves a digest it has changed what the engine computes.

// serveAndIngest runs one push-mode engine incarnation: Serve in the
// background, ingest through the callback, then a graceful Stop and drain.
func serveAndIngest(t *testing.T, cfg stream.Config, ingest func(e *stream.Engine)) *stream.Engine {
	t.Helper()
	e, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- e.Serve(ctx) }()
	if err := e.WaitServing(ctx); err != nil {
		t.Fatal(err)
	}
	ingest(e)
	e.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return e
}

func TestBatchPushMatchesSingleLineAndFileMode(t *testing.T) {
	for _, c := range streamCases() {
		c := c
		t.Run(c.dataset, func(t *testing.T) {
			t.Parallel()
			src, msgs := sourceFor(t, c)

			// The exact lines Feed reads, as a push client would hold them.
			lines := strings.Split(string(src), "\n")

			fileMode := runStream(t, streamConfig(t.TempDir()), src, 0)
			wantStream := fileMode.Digest()
			wantBatch := batchDigest(t, fileMode, msgs)

			byteLines := make([][]byte, len(lines))
			for i, l := range lines {
				byteLines[i] = []byte(l)
			}
			// pushIn returns an ingest callback pushing the dataset in
			// batches of at most size lines.
			pushIn := func(size int) func(e *stream.Engine) {
				return func(e *stream.Engine) {
					for rest := byteLines; len(rest) > 0; {
						n := min(size, len(rest))
						if _, err := e.PushBatch(context.Background(), rest[:n]); err != nil {
							t.Fatalf("PushBatch: %v", err)
						}
						rest = rest[n:]
					}
				}
			}
			single := serveAndIngest(t, streamConfig(t.TempDir()), pushIn(1))
			// A ragged batch size so batch boundaries land everywhere
			// relative to the engine's internal admission batching.
			batched := serveAndIngest(t, streamConfig(t.TempDir()), pushIn(997))

			for name, e := range map[string]*stream.Engine{"one-line batches": single, "ragged batches": batched} {
				if got := e.Digest(); got != wantStream {
					t.Errorf("%s stream digest = %s, want file-mode %s", name, got, wantStream)
				}
				if got := batchDigest(t, e, msgs); got != wantBatch {
					t.Errorf("%s re-applied batch digest = %s, want file-mode %s", name, got, wantBatch)
				}
				fs, es := fileMode.Stats(), e.Stats()
				if es.Processed != fs.Processed || es.Matched != fs.Matched ||
					es.Unparsed != fs.Unparsed || es.Empty != fs.Empty || es.Offset != fs.Offset {
					t.Errorf("%s counters diverged:\npush: %+v\nfile: %+v", name, es, fs)
				}
			}
		})
	}
}
