// Package tokenize implements the domain-knowledge preprocessing step of
// §IV-B: before parsing, obvious variable fields (IP addresses, HDFS block
// IDs, BGL core IDs, bare numbers) can be rewritten to a wildcard so that
// the parsers see them as a single recurring token. The paper's Finding 2
// shows this simple step materially improves SLCT, LKE and LogSig.
package tokenize

import (
	"regexp"

	"logparse/internal/core"
)

// Rule rewrites tokens that match a pattern to the wildcard.
type Rule struct {
	// Name describes the rule for reports, e.g. "ip-address".
	Name string
	// Pattern matches the whole token (it is anchored when compiled).
	Pattern *regexp.Regexp
}

// Preprocessor applies an ordered list of rules to each token of each
// message. The zero value applies no rules (the "raw" configuration).
type Preprocessor struct {
	rules []Rule
}

// NewPreprocessor builds a preprocessor from rules. Rules apply in order;
// the first match rewrites the token.
func NewPreprocessor(rules ...Rule) *Preprocessor {
	return &Preprocessor{rules: append([]Rule(nil), rules...)}
}

// Rules returns the preprocessor's rules, for reporting.
func (p *Preprocessor) Rules() []Rule { return append([]Rule(nil), p.rules...) }

// Apply returns a copy of msgs with Tokens rewritten under the rules.
// The input is not mutated (parsers must be able to see raw and
// preprocessed variants of the same dataset side by side).
func (p *Preprocessor) Apply(msgs []core.LogMessage) []core.LogMessage {
	out := make([]core.LogMessage, len(msgs))
	for i, m := range msgs {
		out[i] = m
		toks := m.Tokens
		if toks == nil {
			toks = core.Tokenize(m.Content)
		}
		rewritten := make([]string, len(toks))
		for j, tok := range toks {
			rewritten[j] = p.rewrite(tok)
		}
		out[i].Tokens = rewritten
	}
	return out
}

func (p *Preprocessor) rewrite(tok string) string {
	for _, r := range p.rules {
		if r.Pattern.MatchString(tok) {
			return core.Wildcard
		}
	}
	return tok
}

// anchor compiles a pattern that must match the entire token, tolerating a
// trailing punctuation character (log tokens like "/10.251.31.5:50010," keep
// their separator glued on).
func anchor(expr string) *regexp.Regexp {
	return regexp.MustCompile(`^` + expr + `[,;.:]?$`)
}

// Named rules corresponding to §IV-B's "obvious numerical parameters".
var (
	// RuleIP matches IPv4 addresses with optional port and path prefix,
	// e.g. "10.251.31.5:50010" or "/10.251.31.5:42506".
	RuleIP = Rule{Name: "ip-address", Pattern: anchor(`/?\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}(:\d+)?`)}
	// RuleBlockID matches HDFS block identifiers such as
	// "blk_-1608999687919862906".
	RuleBlockID = Rule{Name: "block-id", Pattern: anchor(`blk_-?\d+`)}
	// RuleCoreID matches BGL core identifiers such as "core.2275".
	RuleCoreID = Rule{Name: "core-id", Pattern: anchor(`core\.\d+`)}
	// RuleNumber matches bare integers (incl. signed and hex), the generic
	// numeric masking mentioned for LKE.
	RuleNumber = Rule{Name: "number", Pattern: anchor(`-?(0x)?\d+`)}
)
