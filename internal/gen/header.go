package gen

import (
	"math/rand"
	"strings"
	"time"
)

// Header is a dataset's raw-line layout: the non-content fields (timestamp,
// node, severity, component) that precede the free-text message content.
// Only the content takes part in parsing (§IV-A: "only the parts of
// free-text log message contents are used"), so raw files are rendered with
// a header and stripped back to content before parsing.
type Header struct {
	// Fields is how many leading whitespace-separated fields form the
	// header (content is everything after them).
	Fields int
	// render produces a header for a line at the given time.
	render func(ts time.Time, rng *rand.Rand) string
}

// Render prepends a header to message content at the given timestamp.
func (h Header) Render(content string, ts time.Time, rng *rand.Rand) string {
	return h.render(ts, rng) + " " + content
}

// Strip removes the header fields from a raw line, returning the message
// content. Lines with fewer fields than the header are returned unchanged
// (already-stripped input must pass through).
func (h Header) Strip(line string) string {
	rest := line
	for i := 0; i < h.Fields; i++ {
		rest = strings.TrimLeft(rest, " \t")
		cut := strings.IndexAny(rest, " \t")
		if cut < 0 {
			return line
		}
		rest = rest[cut:]
	}
	return strings.TrimLeft(rest, " \t")
}
