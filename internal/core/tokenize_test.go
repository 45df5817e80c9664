package core

import (
	"strings"
	"testing"
)

// TestTokenizeBytesChunkEdges holds TokenizeBytes' word-at-a-time scan to
// strings.Fields where it is easiest to get wrong: at the edges of its
// 8-byte words and 64-byte chunks, and where a chunk falls back to the
// per-rune scan. Every line of length 0–130, over two fillers (one long
// token, and short tokens), gets each separator below — the six ASCII
// spaces, four Unicode spaces, an invalid byte and NUL — written at every
// offset around 7, 8, 63, 64, 65, 127 and 128.
func TestTokenizeBytesChunkEdges(t *testing.T) {
	seps := []string{"\t", "\n", "\v", "\f", "\r", " ", "\u0085", "\u00a0", "\u2028", "\u3000", "\xff", "\x00"}
	var offsets []int
	for _, edge := range []int{7, 8, 63, 64, 65, 127, 128} {
		for d := -2; d <= 2; d++ {
			offsets = append(offsets, edge+d)
		}
	}
	fillers := []string{strings.Repeat("x", 140), strings.Repeat("ab c ", 28)}
	var buf [][]byte
	check := func(line string) {
		t.Helper()
		want := strings.Fields(line)
		buf = TokenizeBytes([]byte(line), buf)
		if len(buf) != len(want) {
			t.Fatalf("%q: %d tokens, strings.Fields %d", line, len(buf), len(want))
		}
		for i := range want {
			if string(buf[i]) != want[i] {
				t.Fatalf("%q: token %d is %q, strings.Fields %q", line, i, buf[i], want[i])
			}
		}
	}
	for n := 0; n <= 130; n++ {
		for _, fill := range fillers {
			check(fill[:n])
			for _, sep := range seps {
				for _, at := range offsets {
					if at < 0 || at >= n {
						continue
					}
					check(fill[:at] + sep + fill[at+1:n])     // one separator
					check(fill[:at] + sep + sep + fill[at:n]) // a run of two
				}
			}
		}
	}
}
