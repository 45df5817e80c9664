package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagThatCannotTakeEffectIsUsageError runs the command line of each
// case through run: a flag the chosen mode would ignore must end it with
// exit code 2 and an error naming the flag, before the input is opened. A
// flag the mode does read must get past the check and fail only on the
// missing input, exit 1.
func TestFlagThatCannotTakeEffectIsUsageError(t *testing.T) {
	batch := []string{"-in", "missing.log"}
	stream := []string{"-in", "missing.log", "-stream"}
	for _, tc := range []struct {
		mode []string
		flag string
		rest []string
		code int
	}{
		{batch, "-epsilon", []string{"0.01"}, 2},
		{stream, "-max-lines", []string{"10"}, 2},
		{stream, "-preprocess", []string{"HDFS"}, 2},
		{stream, "-strict", nil, 2},
		{stream, "-report", []string{"-"}, 2},
		{stream, "-timeout", []string{"1s"}, 2},
		{stream, "-fallback", []string{"IPLoM"}, 2},
		{stream, "-seed", []string{"2"}, 2},
		{stream, "-groups", []string{"4"}, 2},
		{stream, "-threshold", []string{"0.5"}, 2},
		{stream, "-depth", []string{"3"}, 2},
		{stream, "-sim-threshold", []string{"0.5"}, 2},
		{stream, "-max-children", []string{"10"}, 2},
		{stream, "-tau", []string{"0.6"}, 2},
		{stream, "-parser", []string{"IPLoM"}, 2},
		{stream, "-parser", []string{"Drain"}, 2},
		{stream, "-epsilon", []string{"0.01"}, 1},
		{stream, "-parser", []string{"SLCT"}, 1},
		{stream, "-parser", []string{"slct"}, 1},
		{stream, "-support", []string{"5"}, 1},
		{batch, "-timeout", []string{"1s", "-fallback", "SLCT"}, 1},
		{batch, "-parser", []string{"IPLoM"}, 1},
		{batch, "-max-lines", []string{"10", "-strict"}, 1},
	} {
		args := append(append([]string{"logparse"}, tc.mode...), tc.flag)
		os.Args = append(args, tc.rest...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		code, err := run()
		switch {
		case tc.code == 2 && (code != 2 || err == nil || !strings.Contains(err.Error(), tc.flag+" ")):
			t.Errorf("%v: exit %d, error %v; want exit 2 and an error naming %s", os.Args[1:], code, err, tc.flag)
		case tc.code == 1 && (code != 1 || err == nil || !strings.Contains(err.Error(), "missing.log")):
			t.Errorf("%v: exit %d, error %v; want exit 1 on the missing input", os.Args[1:], code, err)
		}
	}
}

// TestStreamSurvivesLineOverFourMiB: -stream reads a line longer than the
// 4 MiB line cap the way batch mode does — truncated and parsed — so it
// exits 0 and writes the events file batch SLCT writes.
func TestStreamSurvivesLineOverFourMiB(t *testing.T) {
	dir := t.TempDir()
	var in bytes.Buffer
	in.WriteString(strings.Repeat("x", 4<<20+6) + "\n")
	for i := 1; i <= 5; i++ {
		fmt.Fprintf(&in, "alpha beta %d\n", i)
	}
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&in, "gamma delta %d\n", i)
	}
	log := filepath.Join(dir, "big.log")
	if err := os.WriteFile(log, in.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	events := map[string][]byte{}
	for mode, args := range map[string][]string{
		"batch":  {"-parser", "SLCT"},
		"stream": {"-stream"},
	} {
		out := filepath.Join(dir, mode+".events")
		os.Args = append([]string{"logparse", "-in", log, "-support", "3", "-events", out}, args...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		if code, err := run(); code != 0 || err != nil {
			t.Fatalf("%s: exit %d, error %v; want exit 0", mode, code, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		events[mode] = data
	}
	if !bytes.Equal(events["batch"], events["stream"]) || len(events["batch"]) == 0 {
		t.Fatalf("events differ:\nbatch:\n%s\nstream:\n%s", events["batch"], events["stream"])
	}
}
