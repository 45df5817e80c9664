package eventstore

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"time"

	"logparse/internal/core"
)

// Request is a query in the vocabulary both front ends — GET /v1/query and
// cmd/logquery — speak: a mode, a selection and the mode's row bound.
type Request struct {
	// Mode is "count" (total selected events), "top" (per-template counts,
	// most frequent first) or "list" (the selected events themselves).
	Mode string
	// Query is the selection; in list mode Query.Limit is the row bound.
	Query Query
	// Top is top mode's row count.
	Top int
}

// ParseRequest reads a Request from named text values — a URL's parameters,
// a command's flags; get returns "" for a name that was not given:
//
//	mode       count (the default), top or list
//	template   comma-separated template ids to select (default all matched)
//	unmatched  "true" includes unmatched lines (template −1)
//	from, to   RFC3339 time bounds, half-open [from, to)
//	n          top: rows returned (default 10)
//	limit      list: events returned (default 100)
//
// Only the row bound of the chosen mode is read. Every error names the
// value at fault and is the caller's usage error.
func ParseRequest(get func(name string) string) (Request, error) {
	req := Request{Mode: cmp.Or(get("mode"), "count")}
	req.Query.IncludeUnmatched = get("unmatched") == "true"
	if list := get("template"); list != "" {
		for _, part := range strings.Split(list, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return req, fmt.Errorf("template: bad id %q", part)
			}
			req.Query.TemplateIDs = append(req.Query.TemplateIDs, int32(id))
		}
	}
	for _, bound := range []struct {
		name string
		dst  *time.Time
	}{{"from", &req.Query.From}, {"to", &req.Query.To}} {
		if v := get(bound.name); v != "" {
			ts, err := time.Parse(time.RFC3339Nano, v)
			if err != nil {
				return req, fmt.Errorf("%s: want RFC3339: %w", bound.name, err)
			}
			*bound.dst = ts
		}
	}
	var err error
	switch req.Mode {
	case "count":
	case "top":
		req.Top, err = rowBound(get, "n", 10)
	case "list":
		req.Query.Limit, err = rowBound(get, "limit", 100)
	default:
		err = fmt.Errorf("mode: unknown %q (want count, top or list)", req.Mode)
	}
	return req, err
}

// rowBound reads the named value as a positive row count, def when it was
// not given.
func rowBound(get func(name string) string, name string, def int) (int, error) {
	v := get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%s: want a positive integer, not %q", name, v)
	}
	return n, nil
}

// Row is one selected event as both front ends render it.
type Row struct {
	Seq      int64  `json:"seq"`
	Time     string `json:"time"`
	Template int32  `json:"template"`
	Name     string `json:"name,omitempty"`
	Kind     string `json:"kind"`
	RawOff   int64  `json:"raw_off,omitempty"`
}

// TemplateCount is one row of a top answer. Template −1 is the unmatched
// bucket.
type TemplateCount struct {
	Template int32  `json:"template"`
	Count    int64  `json:"count"`
	Name     string `json:"name,omitempty"`
}

// AppendJSON appends r as json.Marshal encodes it, for a writer that keeps
// a large answer's bytes out of encoding/json's buffer pool. The struct
// tags above stay the format; TestRowsAppendJSONAsMarshal holds the two
// together.
func (r Row) AppendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"seq":`...), r.Seq, 10)
	b = core.AppendJSONString(append(b, `,"time":`...), r.Time)
	b = strconv.AppendInt(append(b, `,"template":`...), int64(r.Template), 10)
	if r.Name != "" {
		b = core.AppendJSONString(append(b, `,"name":`...), r.Name)
	}
	b = core.AppendJSONString(append(b, `,"kind":`...), r.Kind)
	if r.RawOff != 0 {
		b = strconv.AppendInt(append(b, `,"raw_off":`...), r.RawOff, 10)
	}
	return append(b, '}')
}

// AppendJSON appends c as json.Marshal encodes it; see Row.AppendJSON.
func (c TemplateCount) AppendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"template":`...), int64(c.Template), 10)
	b = strconv.AppendInt(append(b, `,"count":`...), c.Count, 10)
	if c.Name != "" {
		b = core.AppendJSONString(append(b, `,"name":`...), c.Name)
	}
	return append(b, '}')
}

// Answer is what a Request selected; exactly one of Count, Events and
// Templates is set, per mode.
type Answer struct {
	Count     *int64          `json:"count,omitempty"`
	Events    []Row           `json:"events,omitempty"`
	Templates []TemplateCount `json:"templates,omitempty"`
	Stats     QueryStats      `json:"stats"`
}

// Run answers req from the reader's snapshot. names, when non-nil, labels
// rows with their rendered templates. Top rows come most frequent first,
// ties by ascending template id, so the order is deterministic.
func (r *Reader) Run(req Request, names map[int32]string) (ans Answer, err error) {
	switch req.Mode {
	case "count":
		var n int64
		n, ans.Stats, err = r.Count(req.Query)
		ans.Count = &n
	case "top":
		t := newTally()
		ans.Stats, err = r.tally(req.Query, t)
		ans.Templates = t.top(req.Top, names)
	case "list":
		ans.Stats, err = r.Scan(req.Query, func(ev Event) error {
			ans.Events = append(ans.Events, Row{
				Seq:      ev.Seq,
				Time:     time.Unix(0, ev.Time).UTC().Format(time.RFC3339Nano),
				Template: ev.Template,
				Name:     names[ev.Template],
				Kind:     ev.Kind.String(),
				RawOff:   ev.RawOff,
			})
			return nil
		})
	default:
		err = fmt.Errorf("eventstore: unknown request mode %q", req.Mode)
	}
	return ans, err
}
