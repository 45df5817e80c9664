package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"

	"logparse/internal/eventstore"
)

// queryResponse is the 200 body of GET /v1/query: the answer's count,
// events or templates (per mode) and its skip-scan stats, in an envelope.
type queryResponse struct {
	Tenant string `json:"tenant"`
	Mode   string `json:"mode"`
	eventstore.Answer
	// TornTail and Damaged surface crash damage the read-only scan
	// tolerated; the response covers the verified prefix.
	TornTail bool   `json:"torn_tail,omitempty"`
	Damaged  string `json:"damaged,omitempty"`
}

// handleQuery serves GET /v1/query: read-only skip-scan queries over one
// tenant's event store.
//
//	?tenant=ID       required (or X-Tenant header)
//	&mode= &template= &unmatched= &from= &to= &n= &limit=
//	                 the query, as eventstore.ParseRequest reads it; a
//	                 list is capped at 10000 events
//
// 404 when the store is disabled or the tenant has no recorded events. A
// live tenant is read through its kept reader (tenant.reader), refreshed
// per request, so finalized blocks — including those of an actively
// writing tenant — are immediately visible and a query pays for the blocks
// it reads, not for rediscovering the store. A tenant that exists only on
// disk gets a cold scan.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	tenantID, ok := requestTenant(w, r, params)
	if !ok {
		return
	}
	dir := s.eventsDir(tenantID)
	if dir == "" {
		writeErr(w, http.StatusNotFound, 0, "event store disabled (server started without an events root)")
		return
	}
	if _, err := os.Stat(dir); err != nil {
		writeErr(w, http.StatusNotFound, 0, "no recorded events for tenant "+tenantID)
		return
	}

	req, err := eventstore.ParseRequest(params.Get)
	if err != nil {
		writeErr(w, http.StatusBadRequest, 0, "bad "+err.Error())
		return
	}
	req.Query.Limit = min(req.Query.Limit, 10000)

	resp, err := s.runQuery(tenantID, dir, req, false)
	if err != nil {
		// A block the kept reader indexed no longer verifies: the store
		// changed under it. Drop the reader and answer once from a cold scan.
		resp, err = s.runQuery(tenantID, dir, req, true)
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, 0, err.Error())
		return
	}
	writeQuery(w, resp)
}

// writeQuery writes resp with the bytes writeJSON would. encoding/json
// hands every encoder's buffer back to its pool whatever the size, so a
// list or top answer of many rows would keep a buffer of its size there:
// only the small envelope goes through encoding/json, and the rows are
// appended after it into a buffer of this answer's own, written out each
// time it passes queryChunk bytes.
func writeQuery(w http.ResponseWriter, resp queryResponse) {
	events, templates := resp.Events, resp.Templates
	resp.Events, resp.Templates = nil, nil
	head, err := json.Marshal(resp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, 0, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The rows' members come just before "stats", which no string value
	// can hold unescaped.
	i := bytes.Index(head, []byte(`"stats":`))
	// Sized once for the envelope and up to a chunk of rows at a guess of
	// rowBytes each, so the buffer seldom regrows.
	b := make([]byte, 0, len(head)+min(queryChunk, rowBytes*(len(events)+len(templates))))
	b = append(b, head[:i]...)
	if len(events) > 0 {
		b = writeRows(w, append(b, `"events":[`...), events, eventstore.Row.AppendJSON)
	}
	if len(templates) > 0 {
		b = writeRows(w, append(b, `"templates":[`...), templates, eventstore.TemplateCount.AppendJSON)
	}
	_, _ = w.Write(append(append(b, head[i:]...), '\n'))
}

// queryChunk is how many bytes of rows writeQuery gathers before a write;
// rowBytes is a generous size of one row.
const queryChunk, rowBytes = 32 << 10, 256

// writeRows appends rows to b as a JSON list's elements and its closing
// "],", writing b to w and emptying it whenever it reaches queryChunk.
func writeRows[T any](w io.Writer, b []byte, rows []T, appendRow func(T, []byte) []byte) []byte {
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		if b = appendRow(r, b); len(b) >= queryChunk {
			_, _ = w.Write(b)
			b = b[:0]
		}
	}
	return append(b, "],"...)
}

// runQuery answers one parsed request; cold bypasses (and replaces) the
// tenant's kept reader.
func (s *Server) runQuery(tenantID, dir string, req eventstore.Request, cold bool) (queryResponse, error) {
	rd, info, err := s.reader(tenantID, dir, cold)
	if err != nil {
		return queryResponse{}, err
	}
	resp := queryResponse{Tenant: tenantID, Mode: req.Mode, TornTail: info.TornTail, Damaged: info.Damaged}
	resp.Answer, err = rd.Run(req, nil)
	return resp, err
}
