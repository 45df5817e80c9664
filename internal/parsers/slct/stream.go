package slct

import (
	"context"
	"io"

	"logparse/internal/core"
)

// SLCT is the only studied parser whose algorithm streams naturally: both
// passes are single sequential scans and neither needs the messages kept in
// memory. ParseStream exploits that for logs larger than RAM — the paper's
// full HDFS log is 11M lines — optionally with Manku–Motwani lossy counting
// to bound the pass-1 vocabulary (the original C tool's hash-space option
// played the same role).

// StreamResult is the outcome of a streaming parse. Assignments are
// returned as a compact slice parallel to the input line order.
type StreamResult struct {
	Templates  []core.Template
	Assignment []int32 // template index per line; -1 = outlier
	Lines      int
}

// ParseStream runs SLCT over a re-openable source without keeping its
// messages: open is called exactly twice, once per pass, and each reader
// must yield the same lines. Both passes read them through
// core.ScanMessages under core.ReadMessages' policy, so with epsilon 0 the
// result is exactly ParseCtx's over core.ReadMessages(open()). epsilon > 0
// bounds the vocabulary pass with lossy counting at that error rate: a
// pair may be undercounted by at most ε·N, so pairs within ε·N of the
// support threshold can gain or lose frequency versus the exact run.
func (p *Parser) ParseStream(open func() (io.ReadCloser, error), epsilon float64) (*StreamResult, error) {
	templates, ids, err := p.parse(context.TODO(), epsilon, func(fn func(tokens []string)) error {
		r, err := open()
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = core.ScanMessages(r, core.ReadOptions{}, func(msg core.LogMessage) { fn(msg.Tokens) })
		return err
	})
	if err != nil {
		return nil, err
	}
	return &StreamResult{Templates: templates, Assignment: ids, Lines: len(ids)}, nil
}
