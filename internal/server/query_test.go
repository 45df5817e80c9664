package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"logparse/internal/eventstore"
)

// TestWriteQueryMatchesEncoder holds writeQuery to the bytes json.Encoder
// writes for the same answer: count, top and list answers of a live store,
// rows whose strings need escaping, a damaged-store envelope, and an error
// answer through the handler.
func TestWriteQueryMatchesEncoder(t *testing.T) {
	s, err := New(eventsConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	lines := tenantLines(t, 0, 1200)
	ingestAll(t, s, "web", lines, 300)
	waitTenantOffset(t, s, "web", int64(len(lines)))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	encoded := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(name string, resp queryResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		writeQuery(rec, resp)
		if want := encoded(resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: writeQuery wrote\n%s\nwant\n%s", name, rec.Body.Bytes(), want)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
	for _, q := range []string{
		"mode=count",
		"mode=count&template=0",
		"mode=top&n=100000",
		"mode=top&n=100000&unmatched=true",
		"mode=list&limit=10000",
		"mode=list&limit=25&unmatched=true",
		"mode=list&from=2026-01-01T00:00:00Z&to=2026-01-01T00:00:01Z",
	} {
		params, _ := url.ParseQuery(q)
		req, err := eventstore.ParseRequest(params.Get)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.runQuery("web", s.eventsDir("web"), req, true)
		if err != nil {
			t.Fatal(err)
		}
		check(q, resp)
	}

	odd := "<a href=\"x\">&amp;</a> \\ \u2028\u2029 \x01\x1f \xff tab\there \"stats\":"
	count := int64(7)
	many := queryResponse{Tenant: "web", Mode: "list", TornTail: true, Damaged: odd, Answer: eventstore.Answer{Count: &count}}
	for i := range 3 * queryChunk / 100 { // rows past several write chunks
		many.Events = append(many.Events,
			eventstore.Row{Seq: int64(i), Time: odd, Template: -1, Name: odd, Kind: odd, RawOff: 12},
			eventstore.Row{Seq: -5, Template: 3, Kind: "matched"})
		many.Templates = append(many.Templates,
			eventstore.TemplateCount{Template: -1, Count: 9, Name: odd}, eventstore.TemplateCount{Template: int32(i)})
	}
	check("escaped rows", many)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?tenant=web&mode=bogus", nil))
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("error answer %d %q: %v", rec.Code, rec.Body.Bytes(), err)
	}
	if want := encoded(e); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("error answer\n%s\nwant\n%s", rec.Body.Bytes(), want)
	}
}
