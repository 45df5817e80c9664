package server

import (
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
// 404 when the store is disabled or the tenant has no recorded events.
// Each request opens a fresh reader, so finalized blocks — including
// those of live, actively writing tenants — are immediately visible.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tenantID, ok := requestTenant(w, r)
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

	q := eventstore.Query{IncludeUnmatched: r.URL.Query().Get("unmatched") == "true"}
	if tmpl := r.URL.Query().Get("template"); tmpl != "" {
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
		if v := r.URL.Query().Get(bound.name); v != "" {
			ts, err := time.Parse(time.RFC3339Nano, v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, 0, "bad "+bound.name+" (want RFC3339): "+err.Error())
				return
			}
			*bound.dst = ts
		}
	}

	rd, info, err := eventstore.OpenReader(dir, eventstore.ReaderOptions{Telemetry: s.cfg.Telemetry})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, 0, err.Error())
		return
	}
	resp := queryResponse{Tenant: tenantID, TornTail: info.TornTail, Damaged: info.Damaged}
	var st eventstore.QueryStats

	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "count":
		resp.Mode = "count"
		n, qs, err := rd.Count(q)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, 0, err.Error())
			return
		}
		resp.Count, st = &n, qs
	case "top":
		resp.Mode = "top"
		n := 10
		if v := r.URL.Query().Get("n"); v != "" {
			if n, err = strconv.Atoi(v); err != nil || n <= 0 {
				writeErr(w, http.StatusBadRequest, 0, "bad n")
				return
			}
		}
		counts, qs, err := rd.TemplateCounts(q)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, 0, err.Error())
			return
		}
		resp.Templates, st = topTemplates(counts, n), qs
	case "list":
		resp.Mode = "list"
		limit := 100
		if v := r.URL.Query().Get("limit"); v != "" {
			if limit, err = strconv.Atoi(v); err != nil || limit <= 0 {
				writeErr(w, http.StatusBadRequest, 0, "bad limit")
				return
			}
		}
		if limit > 10000 {
			limit = 10000
		}
		q.Limit = limit
		resp.Events = make([]queryEvent, 0, min(limit, 64))
		st, err = rd.Scan(q, func(ev eventstore.Event) error {
			resp.Events = append(resp.Events, queryEvent{
				Seq:      ev.Seq,
				Time:     time.Unix(0, ev.Time).UTC().Format(time.RFC3339Nano),
				Template: ev.Template,
				Kind:     ev.Kind.String(),
				RawOff:   ev.RawOff,
			})
			return nil
		})
		if err != nil {
			writeErr(w, http.StatusInternalServerError, 0, err.Error())
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, 0, "bad mode "+strconv.Quote(mode)+" (want count, top or list)")
		return
	}

	resp.Stats = st
	writeJSON(w, http.StatusOK, resp)
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
