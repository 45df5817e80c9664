package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// conn is one keep-alive HTTP connection to the server: requests on it are
// sent one after another, so a tenant driven through one conn sees its lines
// in order. Every call is bounded by the client timeout.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(addr string) *conn {
	return &conn{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// get fetches path and decodes the 200 JSON body into v.
func (c *conn) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the message
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls /readyz until it answers 200.
func (c *conn) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		var v map[string]string
		if last = c.get("/readyz", &v); last == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %s: %v", timeout, last)
}

// post sends one ready-made newline-delimited body to a tenant and reports
// whether the server answered 200 with every line accepted. A request that
// is refused, times out, or is answered otherwise counts as failed.
func (c *conn) post(ingestURL string, body []byte, lines int) bool {
	resp, err := c.hc.Post(ingestURL, "text/plain", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var r struct {
		Accepted int `json:"accepted"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&r) != nil {
		io.Copy(io.Discard, resp.Body) // keep the connection reusable
		return false
	}
	return r.Accepted == lines
}

func (c *conn) ingestURL(tenant string) string {
	return c.base + "/v1/ingest?tenant=" + url.QueryEscape(tenant)
}

// tenantStats is the part of GET /v1/tenants/<id>/stats the benchmark reads.
type tenantStats struct {
	Stream struct {
		Processed         int64
		Shed              int64
		Templates         int
		Retrains          int64
		Checkpoints       int64
		RingHighWater     int
		WALError          string
		EventStoreError   string
		EventStoreLastSeq int64
	} `json:"stream"`
	Digest string `json:"digest"`
	Error  string `json:"error"`
}

func (c *conn) stats(tenant string) (tenantStats, error) {
	var st tenantStats
	err := c.get("/v1/tenants/"+url.PathEscape(tenant)+"/stats", &st)
	return st, err
}

// waitProcessed polls a tenant's stats until Processed reaches want and
// returns the stats that showed it and the instant they were read. The
// server computes a digest per stats call, so the poll backs off to 10 ms.
func (c *conn) waitProcessed(tenant string, want int64, timeout time.Duration) (tenantStats, time.Time, error) {
	deadline := time.Now().Add(timeout)
	sleep := time.Millisecond
	for {
		st, err := c.stats(tenant)
		now := time.Now()
		if err != nil {
			return st, now, err
		}
		if st.Stream.Processed >= want {
			return st, now, nil
		}
		if now.After(deadline) {
			return st, now, fmt.Errorf("tenant %s: processed %d of %d lines within %s", tenant, st.Stream.Processed, want, timeout)
		}
		time.Sleep(sleep)
		if sleep < 10*time.Millisecond {
			sleep *= 2
		}
	}
}

// queryResult is the part of GET /v1/query the benchmark reads.
type queryResult struct {
	Count     *int64     `json:"count"`
	Events    []struct{} `json:"events"`
	Templates []struct {
		Template int32 `json:"template"`
		Count    int64 `json:"count"`
	} `json:"templates"`
	Stats struct {
		Blocks       int `json:"blocks"`
		Skipped      int `json:"skipped"`
		Decompressed int `json:"decompressed"`
	} `json:"stats"`
}

func (c *conn) query(tenant, params string) (queryResult, error) {
	var r queryResult
	err := c.get("/v1/query?tenant="+url.QueryEscape(tenant)+"&"+params, &r)
	return r, err
}
