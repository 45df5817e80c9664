package stream

import "logparse/internal/core"

// OnlineParser is a learn-per-line parser the engine can run in place of the
// match/buffer/retrain cycle (core.OnlineParser).
type OnlineParser = core.OnlineParser

// syncOnlineLocked refreshes the engine's template/count view from the
// online learner after the template set changed. Counts are indexed by group,
// so growth (online learners never shrink) just extends the slice with
// zeroes; rendered templates may have lost constants in place.
func (e *Engine) syncOnlineLocked() {
	if e.online == nil || !e.onlineDirty {
		return
	}
	e.templates = e.online.Templates()
	for len(e.counts) < len(e.templates) {
		e.counts = append(e.counts, 0)
	}
	e.onlineDirty = false
}
