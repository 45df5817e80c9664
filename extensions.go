package logparse

import (
	"io"

	"logparse/internal/match"
	"logparse/internal/parsers/slct"
)

// StreamResult is the outcome of a streaming SLCT parse: templates plus a
// compact per-line assignment (−1 = outlier). Message contents are never
// retained, so logs larger than memory parse in two sequential scans.
type StreamResult = slct.StreamResult

// ParseStreamSLCT runs two-pass SLCT over a re-openable source (open is
// called once per pass) with bounded memory; with epsilon 0 its result is
// the batch SLCT parse of ReadMessages over the same source. epsilon > 0
// additionally bounds the vocabulary pass with Manku–Motwani lossy counting
// at that error rate.
func ParseStreamSLCT(open func() (io.ReadCloser, error), opts Options, epsilon float64) (*StreamResult, error) {
	return slct.New(slct.Options{Support: opts.Support, SupportFrac: opts.SupportFrac}).ParseStream(open, epsilon)
}

// Matcher applies an extracted template set to new log messages in
// O(message length) — the online half of the toolkit: parsers mine
// templates offline, a Matcher types live traffic in the ingest path.
type Matcher = match.Matcher

// ErrNoMatch is returned by Matcher.Match when no template covers a
// message.
var ErrNoMatch = match.ErrNoMatch

// NewMatcher builds a matcher from a parse result's templates.
func NewMatcher(res *Result) (*Matcher, error) { return match.FromResult(res) }
