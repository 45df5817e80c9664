package main

import (
	"flag"
	"os"
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
	stream := []string{"-in", "missing.log", "-parser", "SLCT", "-stream"}
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
		{stream, "-epsilon", []string{"0.01"}, 1},
		{stream, "-support", []string{"5"}, 1},
		{batch, "-timeout", []string{"1s", "-fallback", "SLCT"}, 1},
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
