// Command postlines replays a file of log lines into a running
// logstreamd -listen as fixed-size POSTs, one after another on one
// connection — the load shape of the benchmark's closed-loop workloads — and
// prints the acknowledged rate, with the elapsed seconds as the last field
// for scripts to read. Used by scripts/profile_server.sh; exits non-zero on
// any request that is not answered 200.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

func main() {
	url := flag.String("url", "", "ingest URL, e.g. http://127.0.0.1:8080/v1/ingest?tenant=t0 (required)")
	in := flag.String("in", "", "file of raw log lines (required)")
	batch := flag.Int("batch", 500, "lines per POST")
	flag.Parse()
	data, err := os.ReadFile(*in)
	lines, posts, start := bytes.Count(data, []byte{'\n'}), 0, time.Now()
	for ; err == nil && len(data) > 0; posts++ {
		end := 0 // the body: the next batch lines of data, sent as a view
		for n := 0; n < *batch && end < len(data); n++ {
			i := bytes.IndexByte(data[end:], '\n')
			if i < 0 {
				i = len(data) - end - 1
			}
			end += i + 1
		}
		var resp *http.Response
		if resp, err = http.Post(*url, "text/plain", bytes.NewReader(data[:end])); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST %s: status %d", *url, resp.StatusCode)
			}
		}
		data = data[end:]
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "postlines:", err)
		os.Exit(1)
	}
	took := time.Since(start).Seconds()
	fmt.Printf("postlines: %d lines in %d POSTs, %.0f lines/s acknowledged, seconds %.3f\n", lines, posts, float64(lines)/took, took)
}
