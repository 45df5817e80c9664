package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// survivors lists the processes still running the given executable.
func survivors(t *testing.T, bin string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range procs {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the process went away between the glob and the read
		}
		if argv0, _, _ := bytes.Cut(b, []byte{0}); string(argv0) == bin {
			out = append(out, p)
		}
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s differ:\n got  %v\n want %v", what, g, w)
	}
}

// TestSmoke runs every workload at -quick size, ordinary and traced, against
// a real server, and holds the emitted names equal to BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts logstreamd processes")
	}
	// The benchmark runs from the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	defer cleanupAll()

	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var gotWorkloads, wantWorkloads, wantE2E, wantLayer []string
	for _, w := range workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
	}
	for _, w := range bf.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	sameSet(t, "workload names", gotWorkloads, wantWorkloads)
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range bf.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}

	ctx := context.Background()
	bin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 1, seconds: 15, quick: true, bin: bin, base: dataBase()}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(ctx, w, opt, trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d requests failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			want := wantE2E
			if trace {
				want = wantLayer
			}
			sameSet(t, w.Name+" metric names", got, want)
		}
		if _, err := os.Stat(filepath.Join("bench", "out", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: span file: %v", w.Name, err)
		}
	}

	live.Lock()
	kids, roots := len(live.children), len(live.roots)
	live.Unlock()
	if kids != 0 || roots != 0 {
		t.Errorf("%d children and %d data roots still tracked after the runs", kids, roots)
	}
	if left := survivors(t, bin); len(left) != 0 {
		t.Errorf("logstreamd processes survived: %v", left)
	}
}
