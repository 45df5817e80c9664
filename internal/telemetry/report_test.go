package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleReport builds a small deterministic report exercising every section:
// counters, a histogram with in-range and overflow observations,
// and a two-level span tree. Values vary run to run (durations), but the
// schema — the set of JSON paths and their types — must not.
func sampleReport() *Report {
	h := New()
	h.Counter("parse.calls").Add(3)
	hist := h.Histogram("parse.seconds", DurationBuckets)
	hist.Observe(0.002)
	hist.Observe(120) // overflow
	root := h.StartSpan("parse")
	root.Child("stage").End()
	root.End()
	return h.Report("test")
}

// schemaOf walks decoded JSON and renders one sorted "path: type" line per
// distinct path, with array elements collapsed under "[]". This freezes
// field names and value types without freezing values.
func schemaOf(v any, path string, out map[string]string) {
	switch x := v.(type) {
	case map[string]any:
		out[path] = "object"
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			schemaOf(x[k], path+"."+k, out)
		}
	case []any:
		out[path] = "array"
		for _, e := range x {
			schemaOf(e, path+"[]", out)
		}
	case string:
		out[path] = "string"
	case float64:
		out[path] = "number"
	case bool:
		out[path] = "bool"
	case nil:
		out[path] = "null"
	default:
		out[path] = fmt.Sprintf("%T", v)
	}
}

func renderSchema(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	schema := map[string]string{}
	schemaOf(decoded, "$", schema)
	lines := make([]string, 0, len(schema))
	for path, typ := range schema {
		lines = append(lines, path+": "+typ)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestReportSchemaGolden freezes the -report JSON schema (field names and
// types, not values) against testdata/report_schema.golden. Regenerate with
//
//	go test ./internal/telemetry -run TestReportSchemaGolden -update
//
// after a deliberate schema change.
func TestReportSchemaGolden(t *testing.T) {
	got := renderSchema(t, sampleReport())
	golden := filepath.Join("testdata", "report_schema.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("report JSON schema drifted from %s.\nRegenerate with -update if the change is deliberate.\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestReportSchemaStable verifies the schema walker itself is deterministic:
// two independently built sample reports render the same schema even though
// their timing values differ.
func TestReportSchemaStable(t *testing.T) {
	a := renderSchema(t, sampleReport())
	b := renderSchema(t, sampleReport())
	if a != b {
		t.Fatalf("schema not deterministic:\n%s\nvs\n%s", a, b)
	}
}
