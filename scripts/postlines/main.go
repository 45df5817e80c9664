// Command postlines replays a file of log lines into a running
// logstreamd -listen as fixed-size POSTs, one after another on one
// connection — the load shape of the benchmark's closed-loop workloads — and
// prints the acknowledged rate, with the elapsed seconds as the last field
// for scripts to read. Used by scripts/profile_server.sh; exits non-zero on
// any request that is not answered 200.
package main

import (
	"bufio"
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
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "postlines:", err)
		os.Exit(1)
	}
	defer f.Close()
	// The file is read one body at a time, so a long run holds one body in
	// memory, not the file.
	br := bufio.NewReaderSize(f, 1<<20)
	var body []byte
	lines, posts, start := 0, 0, time.Now()
	for err == nil {
		body = body[:0]
		for n := 0; n < *batch; n++ {
			line, rerr := br.ReadSlice('\n')
			for rerr == bufio.ErrBufferFull { // a line longer than the reader's buffer
				body = append(body, line...)
				line, rerr = br.ReadSlice('\n')
			}
			body = append(body, line...)
			if rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				break
			}
			lines++
		}
		if len(body) == 0 || err != nil {
			break
		}
		var resp *http.Response
		if resp, err = http.Post(*url, "text/plain", bytes.NewReader(body)); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST %s: status %d", *url, resp.StatusCode)
			}
		}
		posts++
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "postlines:", err)
		os.Exit(1)
	}
	took := time.Since(start).Seconds()
	fmt.Printf("postlines: %d lines in %d POSTs, %.0f lines/s acknowledged, seconds %.3f\n", lines, posts, float64(lines)/took, took)
}
