package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command line args through run with stdout sent to a
// file, and returns what was printed, the exit code and the error.
func runArgs(t *testing.T, args ...string) (string, int, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	os.Args = append([]string{"logeval"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	code, runErr := run()
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), code, runErr
}

// TestDatasetFlagFoldsCase: -dataset resolves a name the way loggen and the
// library do, case-insensitively, and an unknown name fails naming the
// known datasets.
func TestDatasetFlagFoldsCase(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		ok      bool
	}{{"hdfs", true}, {"HDFS", true}, {"HDSF", false}} {
		_, code, err := runArgs(t, "-fig2", "-dataset", tc.dataset, "-parsers", "SLCT", "-max-size", "400")
		switch {
		case tc.ok && err != nil:
			t.Errorf("-dataset %s: %v", tc.dataset, err)
		case !tc.ok && (code != 2 || err == nil || !strings.Contains(err.Error(), "BGL, HPC, Proxifier, HDFS, Zookeeper")):
			t.Errorf("-dataset %s: exit %d, error %v, want exit 2 and an error naming the known datasets", tc.dataset, code, err)
		}
	}
}

// TestParsersFlagNamesEveryParser: -parsers folds case and takes Drain and
// Spell, and the Fig. 2 and Fig. 3 tables and the Fig. 2 legend show
// exactly the parsers that ran, in the order given.
func TestParsersFlagNamesEveryParser(t *testing.T) {
	out, code, err := runArgs(t, "-fig2", "-fig3", "-plot", "-dataset", "HDFS", "-parsers", "slct,Drain,Spell", "-max-size", "2000")
	if code != 0 || err != nil {
		t.Fatalf("exit %d, error %v", code, err)
	}
	var headers []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#lines") {
			headers = append(headers, strings.Join(strings.Fields(line)[1:], " "))
		}
	}
	if len(headers) != 2 || headers[0] != "SLCT Drain Spell" || headers[1] != "SLCT Drain Spell" {
		t.Errorf("table columns %q, want SLCT Drain Spell in Fig. 2 and Fig. 3:\n%s", headers, out)
	}
	if !strings.Contains(out, "legend: S=SLCT  D=Drain  P=Spell") {
		t.Errorf("legend misses a parser:\n%s", out)
	}
}

// TestUnknownParserIsUsageError: an unknown -parsers name ends the run with
// exit 2, naming the known parsers, before any table is printed.
func TestUnknownParserIsUsageError(t *testing.T) {
	out, code, err := runArgs(t, "-table1", "-fig2", "-parsers", "SLCT,Bogus")
	if code != 2 || err == nil || !strings.Contains(err.Error(), "SLCT, IPLoM, LKE, LogSig, Drain, Spell") {
		t.Errorf("exit %d, error %v; want exit 2 and an error naming the known parsers", code, err)
	}
	if out != "" {
		t.Errorf("printed before failing:\n%s", out)
	}
}
