package tokenize_test

import (
	"reflect"
	"testing"

	"logparse/internal/gen"
	"logparse/internal/tokenize"
)

// rulesFor resolves a dataset's §IV-B rules the way the facade's Preprocess
// does: from the dataset's row, or none for an unknown name.
func rulesFor(dataset string) []tokenize.Rule {
	c, err := gen.ByName(dataset)
	if err != nil {
		return nil
	}
	return c.Rules
}

func TestForDataset(t *testing.T) {
	tests := []struct {
		dataset string
		rules   []string
	}{
		{"BGL", []string{"core-id"}},
		{"bgl", []string{"core-id"}}, // case-insensitive
		{"HPC", []string{"ip-address"}},
		{"Zookeeper", []string{"ip-address"}},
		{"HDFS", []string{"ip-address", "block-id"}},
		{"Proxifier", nil},
		{"unknown", nil},
	}
	for _, tt := range tests {
		t.Run(tt.dataset, func(t *testing.T) {
			var names []string
			for _, r := range tokenize.NewPreprocessor(rulesFor(tt.dataset)...).Rules() {
				names = append(names, r.Name)
			}
			if !reflect.DeepEqual(names, tt.rules) {
				t.Errorf("rules for %q = %v, want %v", tt.dataset, names, tt.rules)
			}
		})
	}
}
