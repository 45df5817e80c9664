package gen_test

import (
	"reflect"
	"strings"
	"testing"

	"logparse/internal/conform"
	"logparse/internal/gen"
)

// TestDatasetRows checks every row of the dataset table: it resolves by
// name in any case, generates, carries a Table I size, tuned parameters and
// a floor for every conformance cell on it, and the paper's §IV-B
// preprocessing rules. TestRenderStripRoundTrip checks each row's header.
func TestDatasetRows(t *testing.T) {
	rules := map[string][]string{
		"BGL":       {"core-id"},
		"HPC":       {"ip-address"},
		"Zookeeper": {"ip-address"},
		"HDFS":      {"ip-address", "block-id"},
	}
	cells := conform.Cases()
	for _, name := range gen.AllNames() {
		t.Run(name, func(t *testing.T) {
			c, err := gen.ByName(strings.ToLower(name))
			if err != nil {
				t.Fatal(err)
			}
			if c.Name != name {
				t.Errorf("ByName(%q) returned %q", strings.ToLower(name), c.Name)
			}
			if msgs := c.Generate(1, 50); len(msgs) != 50 || msgs[0].TruthID == "" {
				t.Errorf("Generate(1, 50) = %d messages", len(msgs))
			}
			if c.FullSize <= 0 {
				t.Errorf("FullSize = %d", c.FullSize)
			}
			if p := c.Tuned; c.Paper && (p.SLCTSupportFrac <= 0 || p.LKESplitRatio <= 0 || p.LogSigGroups <= 0) {
				t.Errorf("paper dataset without tuned parameters: %+v", p)
			}
			for _, cell := range cells {
				if cell.Dataset == name && cell.Floor <= 0 {
					t.Errorf("cell %s has no floor", cell.Name())
				}
			}
			var got []string
			for _, r := range c.Rules {
				got = append(got, r.Name)
			}
			if !reflect.DeepEqual(got, rules[name]) {
				t.Errorf("rules = %v, want %v", got, rules[name])
			}
		})
	}
}
