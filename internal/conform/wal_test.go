package conform

import (
	"context"
	"strings"
	"testing"

	"logparse/internal/stream"
)

// The write-ahead log joins the conformance matrix here: a push-mode run
// with the WAL on must be observationally equivalent to the same run with
// the WAL off — same canonical stream digest, same re-applied batch parse
// digest, same counters. The WAL is a durability mechanism; the moment it
// moves a digest it has changed what the engine computes.

func TestWALOnMatchesWALOff(t *testing.T) {
	for _, c := range streamCases() {
		c := c
		t.Run(c.dataset, func(t *testing.T) {
			t.Parallel()
			src, msgs := sourceFor(t, c)
			lines := strings.Split(string(src), "\n")
			byteLines := make([][]byte, len(lines))
			for i, l := range lines {
				byteLines[i] = []byte(l)
			}

			ingest := func(e *stream.Engine) {
				rest := byteLines
				for len(rest) > 0 {
					n := 997
					if n > len(rest) {
						n = len(rest)
					}
					if _, err := e.PushBatch(context.Background(), rest[:n]); err != nil {
						t.Fatalf("PushBatch: %v", err)
					}
					rest = rest[n:]
				}
			}

			off := serveAndIngest(t, streamConfig(t.TempDir()), ingest)

			onCfg := streamConfig(t.TempDir())
			onCfg.WALDir = t.TempDir()
			// Small segments so the run crosses several rotations and at
			// least one checkpoint-driven truncation.
			onCfg.WALSegmentBytes = 64 * 1024
			on := serveAndIngest(t, onCfg, ingest)

			if got, want := on.Digest(), off.Digest(); got != want {
				t.Errorf("WAL-on stream digest = %s, want WAL-off %s", got, want)
			}
			if got, want := batchDigest(t, on, msgs), batchDigest(t, off, msgs); got != want {
				t.Errorf("WAL-on re-applied batch digest = %s, want WAL-off %s", got, want)
			}
			ons, offs := on.Stats(), off.Stats()
			if ons.Processed != offs.Processed || ons.Matched != offs.Matched ||
				ons.Unparsed != offs.Unparsed || ons.Empty != offs.Empty || ons.Offset != offs.Offset {
				t.Errorf("counters diverged:\nwal-on:  %+v\nwal-off: %+v", ons, offs)
			}
			if !ons.WALEnabled || offs.WALEnabled {
				t.Errorf("WALEnabled flags wrong: on=%v off=%v", ons.WALEnabled, offs.WALEnabled)
			}
			if ons.WALLastSeq != ons.Offset {
				t.Errorf("WAL last seq %d != offset %d: the log is missing admitted lines", ons.WALLastSeq, ons.Offset)
			}
		})
	}
}
