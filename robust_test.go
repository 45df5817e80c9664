package logparse_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"logparse"
)

func robustWorkload(n int) []logparse.Message {
	msgs := make([]logparse.Message, n)
	for i := range msgs {
		var l string
		if i%2 == 0 {
			l = fmt.Sprintf("opening file f%d now", i)
		} else {
			l = fmt.Sprintf("closing file f%d now", i)
		}
		msgs[i] = logparse.Message{LineNo: i + 1, Content: l, Tokens: logparse.Tokenize(l)}
	}
	return msgs
}

func TestNewRobustParserChain(t *testing.T) {
	p, err := logparse.NewRobustParser([]string{"IPLoM", "SLCT"},
		logparse.Options{}, logparse.RobustPolicy{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Name(); got != "Robust(IPLoM→SLCT)" {
		t.Errorf("Name() = %q", got)
	}
	msgs := robustWorkload(100)
	res, att, err := p.ParseAttributed(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(len(msgs)); err != nil {
		t.Fatal(err)
	}
	if att.Tier != 0 || att.Degraded {
		t.Errorf("healthy primary: served by tier %d (degraded=%v), want 0", att.Tier, att.Degraded)
	}
}

func TestNewRobustParserUnknownAlgorithm(t *testing.T) {
	_, err := logparse.NewRobustParser([]string{"IPLoM", "NoSuch"},
		logparse.Options{}, logparse.RobustPolicy{})
	if err == nil || !strings.Contains(err.Error(), "NoSuch") {
		t.Fatalf("err = %v, want unknown-algorithm error naming NoSuch", err)
	}
}
