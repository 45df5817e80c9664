// Command debugprobe checks a running logstreamd debug endpoint. It polls
// /debug/vars until the engine's published Stats report -processed lines
// (or the deadline expires) and fails at once if they report more, then
// requires the logstream metrics var beside them and /debug/pprof/cmdline
// to answer 200. Used by scripts/telemetry_smoke.sh; exits non-zero on any
// failure so the smoke fails loudly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

type debugVars struct {
	Stream *struct {
		Processed int64
		Templates int
	} `json:"stream"`
	Logstream *struct {
		Counters map[string]uint64 `json:"counters"`
	} `json:"logstream"`
}

func fetchVars(url string) (*debugVars, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var v debugVars
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return &v, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "debugprobe: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "", "host:port of the debug server (required)")
	processed := flag.Int64("processed", 1, "the line count the published Stats.Processed must reach, and not pass")
	timeout := flag.Duration("timeout", 15*time.Second, "overall probe deadline")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "debugprobe: -addr is required")
		os.Exit(2)
	}

	varsURL := "http://" + *addr + "/debug/vars"
	deadline := time.Now().Add(*timeout)
	for {
		v, err := fetchVars(varsURL)
		if err == nil {
			switch {
			case v.Stream == nil:
				err = fmt.Errorf("stream expvar missing from %s", varsURL)
			case v.Stream.Processed > *processed:
				fail("Stats.Processed = %d, more than the %d lines sent", v.Stream.Processed, *processed)
			case v.Stream.Processed < *processed:
				err = fmt.Errorf("Stats.Processed = %d, want %d", v.Stream.Processed, *processed)
			case v.Logstream == nil:
				fail("logstream expvar missing from %s", varsURL)
			default:
				fmt.Printf("debugprobe: Processed=%d Templates=%d\n", v.Stream.Processed, v.Stream.Templates)
			}
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fail("%v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	pprofURL := "http://" + *addr + "/debug/pprof/cmdline"
	resp, err := http.Get(pprofURL)
	if err != nil {
		fail("%v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("GET %s: status %d", pprofURL, resp.StatusCode)
	}
	fmt.Println("debugprobe: /debug/vars and /debug/pprof OK")
}
