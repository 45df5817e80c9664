package stream

import "logparse/internal/core"

// OnlineParser is a learn-per-line parser the engine can run in place of the
// match/buffer/retrain cycle (core.OnlineParser).
type OnlineParser = core.OnlineParser
