package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"logparse/internal/server"
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

// TestFrontDoorCutsTricklingClient holds the front door to its timeouts: a
// client that trickles its request headers a byte at a time is cut off at
// the header timeout, while a neighbour's POST on another connection
// completes meanwhile. The test shortens the header timeout; the
// constants themselves must be set, the idle timeout must outlast a
// client transport's one-minute idle timeout, and the read timeout must
// not cut -request-timeout short.
func TestFrontDoorCutsTricklingClient(t *testing.T) {
	if readHeaderTimeout <= 0 || readTimeout <= 0 || idleTimeout <= time.Minute {
		t.Fatalf("timeouts %v, %v, %v", readHeaderTimeout, readTimeout, idleTimeout)
	}
	srv, err := server.New(server.Config{CheckpointRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	front := newHTTPServer(srv.Handler(), 0)
	if front.ReadHeaderTimeout != readHeaderTimeout || front.ReadTimeout != readTimeout || front.IdleTimeout != idleTimeout {
		t.Fatalf("front door timeouts %v, %v, %v", front.ReadHeaderTimeout, front.ReadTimeout, front.IdleTimeout)
	}
	// -request-timeout stays in effect above the read timeout, and a
	// negative one, which disables the deadline, lifts the read timeout.
	if long := newHTTPServer(nil, 5*time.Minute); long.ReadTimeout != readHeaderTimeout+5*time.Minute {
		t.Fatalf("-request-timeout 5m: read timeout %v", long.ReadTimeout)
	}
	if off := newHTTPServer(nil, -1); off.ReadTimeout != 0 || off.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("-request-timeout -1: read timeouts %v, %v", off.ReadHeaderTimeout, off.ReadTimeout)
	}
	front.ReadHeaderTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(ln)
	defer front.Close()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	cut := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		for _, b := range []byte("POST /v1/ingest?tenant=slow HTTP/1.1\r\nHost: x\r\nX-Trickle: " + strings.Repeat("z", 200)) {
			if _, err := slow.Write([]byte{b}); err != nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		cut <- time.Since(start)
	}()
	readErr := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(slow) // returns when the server closes the connection
		readErr <- err
	}()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post("http://"+ln.Addr().String()+"/v1/ingest?tenant=fast", "text/plain", strings.NewReader("one line\ntwo lines\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbour's POST: %s", resp.Status)
	}
	select {
	case err := <-readErr:
		if err != nil {
			t.Fatalf("trickling connection: %v", err)
		}
	case <-time.After(3 * time.Second): // the trickle alone would take 4.6 s
		t.Fatal("the trickling client was not cut off")
	}
	if d := <-cut; d > 3*time.Second {
		t.Fatalf("the trickle went on for %v after the server cut it", d)
	}
}

// TestParentFileModeRootsResume resumes checkpoint roots written by the
// file tailer that file mode had before it became a Feed client: a
// Zookeeper run (seed 6) of 3,000 lines with a checkpoint every 700, killed
// after line 2,345 (-kill-after-lines), once in retrain mode and once under
// online Drain. Fed the same dataset again, each root must resume at its last
// checkpoint and finish with the digest that tailer's uninterrupted run
// printed.
func TestParentFileModeRootsResume(t *testing.T) {
	for _, tc := range []struct {
		root   string
		args   []string
		digest string
	}{
		{"retrain", []string{"-retrain-batch", "64"}, "f462deb013b62d5d87c6643b6aad97ac026299a557d72f722211691ecba3aa25"},
		{"drain", []string{"-online", "Drain"}, "870a85d4bdcb62e0a1e9dfa8dd145e035cccef4e6a76216d3bac13afd109fc56"},
	} {
		t.Run(tc.root, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join("testdata", "parent-roots", tc.root)
			ents, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				data, err := os.ReadFile(filepath.Join(src, ent.Name()))
				if err == nil {
					err = os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			stdout, stderr := filepath.Join(t.TempDir(), "stdout"), filepath.Join(t.TempDir(), "stderr")
			args := append([]string{"-dataset", "Zookeeper", "-lines", "3000", "-seed", "6", "-checkpoint-every", "700",
				"-checkpoint-dir", dir, "-digest", "-stats=false"}, tc.args...)
			if code, err := runTo(t, stdout, stderr, args...); code != 0 || err != nil {
				t.Fatalf("exit %d, error %v", code, err)
			}
			out, _ := os.ReadFile(stdout)
			errOut, _ := os.ReadFile(stderr)
			if !strings.Contains(string(errOut), "(generation 3, offset 2100)") {
				t.Errorf("did not resume the root at its last checkpoint; stderr:\n%s", errOut)
			}
			if got := strings.TrimSpace(string(out)); got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestParentWALRootResumes resumes a -listen -wal root that the tree
// before batch records wrote, one record per line: 2,001 Spark lines (seed
// 5) posted to tenant t as 300-line POSTs, line 1,000 over 4 MiB long, and
// the process killed with -9 before any checkpoint, so only the WAL holds
// the lines. Its segments are committed gzipped (the long line is one byte
// repeated). Replayed by this tree, the tenant must report what that tree
// reported when it resumed the same root.
func TestParentWALRootResumes(t *testing.T) {
	root := t.TempDir()
	src := filepath.Join("testdata", "parent-roots", "wal")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		dst := filepath.Join(root, strings.TrimSuffix(rel, ".gz"))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(zr)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	addrFile, stdout, stderr := filepath.Join(dir, "addr"), filepath.Join(dir, "stdout"), filepath.Join(dir, "stderr")
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		code, err := runTo(t, stdout, stderr, "-listen", "127.0.0.1:0", "-listen-addr-file", addrFile, "-checkpoint-dir", root, "-wal")
		done <- result{code, err}
	}()
	var addr []byte
	for start := time.Now(); len(addr) == 0 && time.Since(start) < 10*time.Second; time.Sleep(10 * time.Millisecond) {
		addr, _ = os.ReadFile(addrFile)
	}
	if len(addr) == 0 {
		t.Fatal("the server never bound")
	}
	var st struct {
		Stream struct{ Processed, Oversized, WALReplayed int64 }
		Digest string
	}
	for start := time.Now(); st.Stream.Processed < 2001 && time.Since(start) < 30*time.Second; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get("http://" + strings.TrimSpace(string(addr)) + "/v1/tenants/t/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.code != 0 || r.err != nil {
		t.Fatalf("exit %d, error %v", r.code, r.err)
	}
	const digest = "aae0345b8f5df3376010a1ad4742d6918a5b021d3bd3b21fb399307b87c840af"
	if st.Stream.Processed != 2001 || st.Stream.Oversized != 1 || st.Stream.WALReplayed != 2001 || st.Digest != digest {
		t.Fatalf("resumed Processed=%d Oversized=%d WALReplayed=%d digest %s, want 2001, 1, 2001 and %s",
			st.Stream.Processed, st.Stream.Oversized, st.Stream.WALReplayed, st.Digest, digest)
	}
}

// runTo runs the command line through run with stdout and stderr written
// to the named files.
func runTo(t *testing.T, stdout, stderr string, args ...string) (int, error) {
	t.Helper()
	outF, err := os.Create(stdout)
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	saveOut, saveErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	defer func() { os.Stdout, os.Stderr = saveOut, saveErr }()
	os.Args = append([]string{"logstreamd"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	return run()
}
