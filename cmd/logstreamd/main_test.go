package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagThatCannotTakeEffectIsUsageError runs the command line of each
// case through run: a flag the chosen mode would ignore must end it with
// exit code 2 and an error naming the flag, before anything is opened.
func TestFlagThatCannotTakeEffectIsUsageError(t *testing.T) {
	file := []string{"-in", "app.log"}
	listen := []string{"-listen", "127.0.0.1:0"}
	for _, tc := range []struct {
		mode []string
		flag string
		rest []string
	}{
		{file, "-wal", nil},
		{file, "-wal-sync", []string{"none"}},
		{file, "-wal-segment-bytes", []string{"4096"}},
		{file, "-quota-rate", []string{"10"}},
		{file, "-quota-burst", []string{"10"}},
		{file, "-max-body", []string{"10"}},
		{file, "-request-timeout", []string{"1s"}},
		{file, "-drain-timeout", []string{"1s"}},
		{file, "-listen-addr-file", []string{"addr"}},
		{file, "-lines", []string{"10"}},
		{file, "-events-block-bytes", []string{"64"}},
		{listen, "-wal-sync", []string{"none"}},
		{listen, "-in", []string{"app.log"}},
		{listen, "-dataset", []string{"HDFS"}},
		{listen, "-digest", nil},
		{listen, "-kill-after-lines", []string{"5"}},
		{listen, "-torn-checkpoint-at", []string{"1"}},
		{listen, "-torn-checkpoint-limit", []string{"9"}},
		{listen, "-linger", nil},
		{listen, "-retrainer", []string{"SLCT", "-online", "Drain"}},
	} {
		args := append(append([]string{"logstreamd", "-checkpoint-dir", t.TempDir()}, tc.mode...), tc.flag)
		os.Args = append(args, tc.rest...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		code, err := run()
		if code != 2 || err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%v: exit %d, error %v; want exit 2 and an error naming %s", os.Args[1:], code, err, tc.flag)
		}
	}
}
