package logparse_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"logparse"
)

func TestStreamEngineFacadeEndToEnd(t *testing.T) {
	cat, err := logparse.Dataset("Zookeeper")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := logparse.WriteMessages(&buf, cat.Generate(1, 2000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	retrainer, err := logparse.NewStreamRetrainer("", logparse.Options{SupportFrac: 0.005}, logparse.RobustPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := logparse.NewStreamEngine(logparse.StreamConfig{
		CheckpointDir:   t.TempDir(),
		Policy:          logparse.StreamBackpressure,
		CheckpointEvery: 500,
		RetrainBatch:    64,
		Retrainer:       retrainer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := logparse.FeedStream(context.Background(), eng, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Processed != 2000 || s.Templates == 0 || s.Matched == 0 {
		t.Fatalf("facade streaming run: %+v", s)
	}
	tmpls, counts := eng.Result()
	d := logparse.StreamDigest(tmpls, counts)
	if len(d) != 64 || strings.Trim(d, "0123456789abcdef") != "" {
		t.Fatalf("StreamDigest = %q, want a sha256 hex string", d)
	}
	if d != eng.Digest() {
		t.Fatal("StreamDigest over Result() disagrees with Engine.Digest")
	}
}

func TestStreamRetrainerRejectsUnknownPrimary(t *testing.T) {
	if _, err := logparse.NewStreamRetrainer("nope", logparse.Options{}, logparse.RobustPolicy{}); err == nil {
		t.Fatal("unknown primary algorithm should fail")
	}
}

func TestStreamEngineOnlineFacadeEndToEnd(t *testing.T) {
	cat, err := logparse.Dataset("HDFS")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := logparse.WriteMessages(&buf, cat.Generate(3, 2000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, algo := range []string{"Drain", "Spell"} {
		online, err := logparse.NewOnlineParser(algo, logparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := logparse.NewStreamEngine(logparse.StreamConfig{
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 500,
			Online:          online,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := logparse.FeedStream(context.Background(), eng, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		if s.Processed != 2000 || s.Templates == 0 || s.Matched != s.Processed-s.Empty {
			t.Fatalf("%s online run: %+v", algo, s)
		}
		if s.OnlineParser != algo {
			t.Fatalf("Stats.OnlineParser = %q, want %s", s.OnlineParser, algo)
		}
	}
}

func TestNewOnlineParserRejectsBatchOnlyAlgorithms(t *testing.T) {
	for _, algo := range []string{"SLCT", "IPLoM", "LKE", "LogSig", "nope"} {
		if _, err := logparse.NewOnlineParser(algo, logparse.Options{}); err == nil {
			t.Errorf("NewOnlineParser(%s) accepted", algo)
		}
	}
}
