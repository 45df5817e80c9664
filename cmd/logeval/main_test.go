package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestDatasetFlagFoldsCase: -dataset resolves a name the way loggen and the
// library do, case-insensitively, and an unknown name fails naming the
// known datasets.
func TestDatasetFlagFoldsCase(t *testing.T) {
	stdout := os.Stdout
	devNull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()
	for _, tc := range []struct {
		dataset string
		ok      bool
	}{{"hdfs", true}, {"HDFS", true}, {"HDSF", false}} {
		os.Args = []string{"logeval", "-fig2", "-dataset", tc.dataset, "-parsers", "SLCT", "-max-size", "400"}
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		err := run()
		switch {
		case tc.ok && err != nil:
			t.Errorf("-dataset %s: %v", tc.dataset, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "BGL, HPC, Proxifier, HDFS, Zookeeper")):
			t.Errorf("-dataset %s: error %v, want one naming the known datasets", tc.dataset, err)
		}
	}
}
