package tokenize

import (
	"reflect"
	"testing"

	"logparse/internal/core"
)

func TestRulePatterns(t *testing.T) {
	tests := []struct {
		rule  Rule
		token string
		want  bool
	}{
		{RuleIP, "10.251.31.5:50010", true},
		{RuleIP, "/10.251.31.5:42506", true},
		{RuleIP, "10.251.31.5", true},
		{RuleIP, "10.251.31.5:50010,", true}, // trailing punctuation tolerated
		{RuleIP, "1.2.3", false},
		{RuleIP, "src:", false},
		{RuleIP, "hostname:50010", false},
		{RuleBlockID, "blk_904791815409399662", true},
		{RuleBlockID, "blk_-1608999687919862906", true},
		{RuleBlockID, "blk_x", false},
		{RuleBlockID, "block", false},
		{RuleCoreID, "core.2275", true},
		{RuleCoreID, "core.852", true},
		{RuleCoreID, "core", false},
		{RuleCoreID, "score.12", false},
		{RuleNumber, "42", true},
		{RuleNumber, "-17", true},
		{RuleNumber, "0x1f", false}, // 0x1f has hex letters beyond \d
		{RuleNumber, "12a", false},
	}
	for _, tt := range tests {
		if got := tt.rule.Pattern.MatchString(tt.token); got != tt.want {
			t.Errorf("%s.Match(%q) = %v, want %v", tt.rule.Name, tt.token, got, tt.want)
		}
	}
}

func TestApplyRewritesMatches(t *testing.T) {
	p := NewPreprocessor(RuleIP, RuleBlockID)
	msgs := []core.LogMessage{{
		Content: "Receiving block blk_123 src: /10.0.0.1:4000 dest: /10.0.0.2:50010",
		Tokens:  core.Tokenize("Receiving block blk_123 src: /10.0.0.1:4000 dest: /10.0.0.2:50010"),
	}}
	out := p.Apply(msgs)
	want := []string{"Receiving", "block", "*", "src:", "*", "dest:", "*"}
	if !reflect.DeepEqual(out[0].Tokens, want) {
		t.Errorf("Apply tokens = %v, want %v", out[0].Tokens, want)
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	p := NewPreprocessor(RuleNumber)
	msgs := []core.LogMessage{{Content: "x 42", Tokens: []string{"x", "42"}}}
	_ = p.Apply(msgs)
	if msgs[0].Tokens[1] != "42" {
		t.Error("Apply mutated its input")
	}
}

func TestApplyTokenizesWhenMissing(t *testing.T) {
	p := NewPreprocessor()
	out := p.Apply([]core.LogMessage{{Content: "a b"}})
	if !reflect.DeepEqual(out[0].Tokens, []string{"a", "b"}) {
		t.Errorf("missing tokens not derived: %v", out[0].Tokens)
	}
}

func TestEmptyPreprocessorIsIdentity(t *testing.T) {
	p := NewPreprocessor()
	in := []core.LogMessage{{Content: "10.0.0.1 blk_1 42", Tokens: []string{"10.0.0.1", "blk_1", "42"}}}
	out := p.Apply(in)
	if !reflect.DeepEqual(out[0].Tokens, in[0].Tokens) {
		t.Errorf("empty preprocessor rewrote tokens: %v", out[0].Tokens)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	// A token matching several rules is rewritten once (order is benign
	// since all rules rewrite to the wildcard, but the loop must stop).
	p := NewPreprocessor(RuleNumber, RuleIP)
	out := p.Apply([]core.LogMessage{{Content: "7", Tokens: []string{"7"}}})
	if out[0].Tokens[0] != core.Wildcard {
		t.Errorf("got %q, want wildcard", out[0].Tokens[0])
	}
}

func TestHDFSPreprocessingEndToEnd(t *testing.T) {
	// The Fig. 1 example line must reduce to its event template.
	line := "Receiving block blk_-1608999687919862906 src: /10.251.31.5:42506 dest: /10.251.31.5:50010"
	out := NewPreprocessor(RuleIP, RuleBlockID).Apply([]core.LogMessage{{Content: line, Tokens: core.Tokenize(line)}})
	want := []string{"Receiving", "block", "*", "src:", "*", "dest:", "*"}
	if !reflect.DeepEqual(out[0].Tokens, want) {
		t.Errorf("preprocessed = %v, want %v", out[0].Tokens, want)
	}
}
