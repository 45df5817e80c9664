package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"logparse/internal/stream"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/ingest?tenant=ID       newline-delimited lines in the body;
//	                                200 with {accepted,skipped,shed},
//	                                400 bad tenant, 413 oversized body or
//	                                unsplittable batch, 429 quota
//	                                (Retry-After), 503 draining/restarting
//	                                (Retry-After)
//	GET  /v1/query?tenant=ID        read-only skip-scan query over the
//	                                tenant's event store (mode=count|top|
//	                                list, template=, from=, to=, limit=,
//	                                n=, unmatched=); 404 when disabled or
//	                                no events recorded — see handleQuery
//	GET  /v1/tenants                live tenants with their offsets
//	GET  /v1/tenants/{id}/stats     one tenant's full snapshot + digest
//	GET  /v1/stats                  the fleet snapshot
//	GET  /healthz                   200 while the process lives
//	GET  /readyz                    200 while accepting ingest, 503 when
//	                                draining (Retry-After)
//
// The whole tree is wrapped in a per-request deadline
// (Config.RequestTimeout): a request stuck behind a slow tenant gets 503
// without tying up anything but that tenant.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /v1/tenants/{id}/stats", s.handleTenantStats)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	var h http.Handler = mux
	if s.cfg.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, s.cfg.RequestTimeout,
			`{"error":"request deadline exceeded; the tenant is backlogged"}`)
	}
	return h
}

// ingestResponse is the 200 body of POST /v1/ingest.
type ingestResponse struct {
	Tenant string `json:"tenant"`
	stream.PushResult
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// requestTenant extracts a request's tenant id — ?tenant= first (params is
// the request's query string, parsed once), then the X-Tenant header — and
// validates its shape. On failure it has already written the 400 and
// reports ok=false.
func requestTenant(w http.ResponseWriter, r *http.Request, params url.Values) (id string, ok bool) {
	id = params.Get("tenant")
	if id == "" {
		id = r.Header.Get("X-Tenant")
	}
	if id == "" {
		writeErr(w, http.StatusBadRequest, 0, "missing tenant (query ?tenant= or X-Tenant header)")
		return "", false
	}
	if !tenantIDRe.MatchString(id) {
		writeErr(w, http.StatusBadRequest, 0, (&TenantIDError{ID: id}).Error())
		return "", false
	}
	return id, true
}

// ingestBuf is one POST's working memory: the body and the line views into
// it. Pooled, so a steady-state request allocates neither, whatever its
// size.
type ingestBuf struct {
	body  bytes.Buffer
	lines [][]byte
}

var ingestBufs = sync.Pool{New: func() any { return new(ingestBuf) }}

// errDeclaredTooLarge refuses a Content-Length over Config.MaxBodyBytes the
// way the read would have, before a byte is read.
var errDeclaredTooLarge = &http.MaxBytesError{}

// handleIngest reads the whole body, once, into a pooled buffer, splits it
// in place and pushes the lines. The body is complete before anything is
// admitted, so a request that fails half-way admits nothing. The buffer
// goes back to the pool only here, on the handler's own goroutine and after
// IngestBatch has returned — PushBatch has copied every admitted line into
// the WAL buffer and an arena by then — which also holds when
// http.TimeoutHandler has given up on this handler and answered for it.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.tm.requests.Inc()
	tenantID, ok := requestTenant(w, r, r.URL.Query())
	if !ok {
		return
	}
	b := ingestBufs.Get().(*ingestBuf)
	defer ingestBufs.Put(b)
	var err error = errDeclaredTooLarge
	if r.ContentLength <= s.cfg.MaxBodyBytes {
		// Sized from Content-Length so the body lands without regrowing
		// (ReadFrom wants bytes.MinRead spare to see EOF); a chunked body
		// (-1) grows geometrically instead.
		b.body.Reset()
		b.body.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead)
		_, err = b.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, 0,
				fmt.Sprintf("body exceeds %d bytes; split the batch", s.cfg.MaxBodyBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, 0, "reading body: "+err.Error())
		return
	}
	b.lines = appendBatchLines(b.lines[:0], b.body.Bytes())
	res, err := s.IngestBatch(r.Context(), tenantID, b.lines)
	if err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Tenant: tenantID, PushResult: res})
}

// appendBatchLines splits a newline-delimited batch body into per-line
// views appended to lines. Segment for segment it is strings.Split(body,
// "\n") — empty segments included, carriage returns preserved — so the
// wire format, and every digest downstream of it, is what it always was.
func appendBatchLines(lines [][]byte, body []byte) [][]byte {
	for more := true; more; {
		var line []byte
		line, body, more = bytes.Cut(body, []byte{'\n'})
		lines = append(lines, line)
	}
	return lines
}

// replayAdvice is what a 503 tells a client whose batch an engine
// incarnation refused.
const replayAdvice = "replay the stream from its beginning; acknowledged lines are skipped as duplicates"

// writeIngestErr maps a typed ingest failure to its status code and
// backpressure signal.
func writeIngestErr(w http.ResponseWriter, err error) {
	var qe *QuotaError
	var de *stream.DurableError
	switch {
	case errors.As(err, &de):
		// The tenant's WAL or event store failed mid-batch: nothing in
		// this batch was acknowledged, and the supervisor is rebuilding
		// the engine (reopening the failed layer repairs it). The new
		// incarnation numbers pushes from the start of the stream, so the
		// client replays the stream from its beginning, not the batch
		// alone; what is durable is skipped as duplicates.
		writeErr(w, http.StatusServiceUnavailable, 1, de.Error()+"; "+replayAdvice)
	case errors.As(err, &qe):
		if qe.Permanent {
			writeErr(w, http.StatusRequestEntityTooLarge, 0, qe.Error())
			return
		}
		writeErr(w, http.StatusTooManyRequests, retrySeconds(qe.RetryAfter), qe.Error())
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, 1, err.Error())
	case errors.Is(err, ErrTooManyTenants):
		writeErr(w, http.StatusServiceUnavailable, 0, err.Error())
	case errors.Is(err, stream.ErrNotServing):
		// The tenant's engine is between incarnations (panic recovery in
		// progress) or mid-drain; the batch was not durably admitted, and
		// the next incarnation, too, numbers pushes from the start of the
		// stream.
		writeErr(w, http.StatusServiceUnavailable, 1, err.Error()+"; "+replayAdvice)
	default:
		writeErr(w, http.StatusInternalServerError, 0, err.Error())
	}
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.TenantStats(r.PathValue("id"))
	if err != nil {
		var tie *TenantIDError
		switch {
		case errors.As(err, &tie):
			writeErr(w, http.StatusBadRequest, 0, tie.Error())
		case errors.Is(err, ErrUnknownTenant):
			writeErr(w, http.StatusNotFound, 0, err.Error())
		case errors.Is(err, ErrDraining):
			writeErr(w, http.StatusServiceUnavailable, 1, err.Error())
		default:
			writeErr(w, http.StatusInternalServerError, 0, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// tenantSummary is one row of GET /v1/tenants.
type tenantSummary struct {
	Tenant string `json:"tenant"`
	Offset int64  `json:"offset"`
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	tenants, _ := s.snapshot(false)
	out := make([]tenantSummary, 0, len(tenants))
	for _, t := range tenants {
		if t.built() { // one still recovering is listed once it serves
			out = append(out, tenantSummary{Tenant: t.id, Offset: t.stats().Stream.Offset})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, 1, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// retrySeconds renders a Retry-After duration in whole seconds, at least 1.
func retrySeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status, retryAfter int, msg string) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, errorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}
