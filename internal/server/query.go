package server

import (
	"cmp"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"logparse/internal/eventstore"
)

// queryEvent is one row of a list-mode response.
type queryEvent struct {
	Seq      int64  `json:"seq"`
	Time     string `json:"time"`
	Template int32  `json:"template"`
	Kind     string `json:"kind"`
	RawOff   int64  `json:"raw_off,omitempty"`
}

// templateCount is one row of a top-mode response. Template -1 is the
// unmatched bucket.
type templateCount struct {
	Template int32 `json:"template"`
	Count    int64 `json:"count"`
}

// queryResponse is the 200 body of GET /v1/query; exactly one of Count,
// Events, Templates is populated, per mode.
type queryResponse struct {
	Tenant    string                `json:"tenant"`
	Mode      string                `json:"mode"`
	Count     *int64                `json:"count,omitempty"`
	Events    []queryEvent          `json:"events,omitempty"`
	Templates []templateCount       `json:"templates,omitempty"`
	Stats     eventstore.QueryStats `json:"stats"`
	// TornTail and Damaged surface crash damage the read-only scan
	// tolerated; the response covers the verified prefix.
	TornTail bool   `json:"torn_tail,omitempty"`
	Damaged  string `json:"damaged,omitempty"`
}

// handleQuery serves GET /v1/query: read-only skip-scan queries over one
// tenant's event store.
//
//	?tenant=ID       required (or X-Tenant header)
//	&mode=count      total selected events (default); index-only when the
//	                 time range covers whole blocks
//	&mode=top        per-template counts, descending, top &n= (default 10)
//	&mode=list       the selected events themselves, capped at &limit=
//	                 (default 100, max 10000)
//	&template=3,7    restrict to these template ids
//	&from=&to=       RFC3339 time bounds (half-open [from, to))
//	&unmatched=true  include unmatched lines (template -1)
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

	q := eventstore.Query{IncludeUnmatched: params.Get("unmatched") == "true"}
	if tmpl := params.Get("template"); tmpl != "" {
		for _, part := range strings.Split(tmpl, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				writeErr(w, http.StatusBadRequest, 0, "bad template id "+strconv.Quote(part))
				return
			}
			q.TemplateIDs = append(q.TemplateIDs, int32(id))
		}
	}
	for _, bound := range []struct {
		name string
		dst  *time.Time
	}{{"from", &q.From}, {"to", &q.To}} {
		if v := params.Get(bound.name); v != "" {
			ts, err := time.Parse(time.RFC3339Nano, v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, 0, "bad "+bound.name+" (want RFC3339): "+err.Error())
				return
			}
			*bound.dst = ts
		}
	}
	mode := cmp.Or(params.Get("mode"), "count")
	n, nName := 0, "" // top's row count or list's limit, and its parameter
	switch mode {
	case "count":
	case "top":
		n, nName = 10, "n"
	case "list":
		n, nName = 100, "limit"
	default:
		writeErr(w, http.StatusBadRequest, 0, "bad mode "+strconv.Quote(mode)+" (want count, top or list)")
		return
	}
	if v := params.Get(nName); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, 0, "bad "+nName)
			return
		}
	}

	resp, err := s.runQuery(tenantID, dir, mode, n, q, false)
	if err != nil {
		// A block the kept reader indexed no longer verifies: the store
		// changed under it. Drop the reader and answer once from a cold scan.
		resp, err = s.runQuery(tenantID, dir, mode, n, q, true)
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, 0, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// runQuery answers one parsed query; n is top's row count or list's limit.
// cold bypasses (and replaces) the tenant's kept reader.
func (s *Server) runQuery(tenantID, dir, mode string, n int, q eventstore.Query, cold bool) (queryResponse, error) {
	rd, info, err := s.reader(tenantID, dir, cold)
	if err != nil {
		return queryResponse{}, err
	}
	resp := queryResponse{Tenant: tenantID, Mode: mode, TornTail: info.TornTail, Damaged: info.Damaged}

	switch mode {
	case "count":
		var c int64
		c, resp.Stats, err = rd.Count(q)
		resp.Count = &c
	case "top":
		var counts map[int32]int64
		counts, resp.Stats, err = rd.TemplateCounts(q)
		resp.Templates = topTemplates(counts, n)
	case "list":
		q.Limit = min(n, 10000)
		resp.Events = make([]queryEvent, 0, min(q.Limit, 64))
		resp.Stats, err = rd.Scan(q, func(ev eventstore.Event) error {
			resp.Events = append(resp.Events, queryEvent{
				Seq:      ev.Seq,
				Time:     time.Unix(0, ev.Time).UTC().Format(time.RFC3339Nano),
				Template: ev.Template,
				Kind:     ev.Kind.String(),
				RawOff:   ev.RawOff,
			})
			return nil
		})
	}
	return resp, err
}

// topTemplates sorts a template→count map descending (ties by ascending
// template id, so the order is deterministic) and keeps the top n.
func topTemplates(counts map[int32]int64, n int) []templateCount {
	out := make([]templateCount, 0, len(counts))
	for id, c := range counts {
		out = append(out, templateCount{Template: id, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Template < out[j].Template
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
