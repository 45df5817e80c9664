package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logparse/internal/stream"
)

// runArgs runs the command line through run with stdout discarded.
func runArgs(t *testing.T, args ...string) (int, error) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()
	os.Args = append([]string{"logquery"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	return run()
}

// TestCheckpointDirWithoutCheckpointFails holds -checkpoint-dir to a usage
// of the directory it names: a missing or checkpoint-less directory ends the
// command with exit 1 and an error naming it, and nothing is created.
func TestCheckpointDirWithoutCheckpointFails(t *testing.T) {
	root := t.TempDir()
	ckpt, events := filepath.Join(root, "ck"), filepath.Join(root, "ev")
	var src strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&src, "connection %d from host h%d established\n", i, i%7)
	}
	eng, err := stream.New(stream.Config{
		CheckpointDir: ckpt,
		EventStoreDir: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Feed(context.Background(), eng, strings.NewReader(src.String())); err != nil {
		t.Fatal(err)
	}
	if code, err := runArgs(t, "-dir", events, "-mode", "top", "-checkpoint-dir", ckpt, "-stats=false"); code != 0 || err != nil {
		t.Fatalf("a written checkpoint: exit %d, error %v", code, err)
	}

	empty := filepath.Join(root, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{filepath.Join(root, "ckk"), empty} {
		code, err := runArgs(t, "-dir", events, "-mode", "top", "-checkpoint-dir", dir)
		if code != 1 || err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("-checkpoint-dir %s: exit %d, error %v; want exit 1 and an error naming it", dir, code, err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "ckk")); !os.IsNotExist(err) {
		t.Errorf("the mistyped directory was created (stat: %v)", err)
	}
	if ents, _ := os.ReadDir(empty); len(ents) != 0 {
		t.Errorf("the empty directory gained %d entries", len(ents))
	}
}
