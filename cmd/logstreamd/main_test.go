package main

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
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
