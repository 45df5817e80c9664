// Command logquery answers questions about a parsed-event store without
// touching the engine that wrote it: which templates fired, how often,
// and when. It reads the block footers' time ranges and exact
// per-template indexes to skip — or answer entirely without decompressing
// — every block the query cannot select from, so a narrow query over a
// large store reads almost none of it; in the blocks a list does read, the
// decoder walks the template column and decodes only the events it keeps.
//
// Count one template's events inside a time window:
//
//	logquery -dir events -template 7 -from 2026-08-08T00:00:00Z -to 2026-08-08T01:00:00Z
//
// The most frequent templates, with names resolved from the engine's
// checkpoint:
//
//	logquery -dir events -mode top -n 10 -checkpoint-dir ck
//
// List matching events (store order, seq = source line number):
//
//	logquery -dir events -mode list -template 3,9 -limit 50
//
// Query one tenant of a -listen server started with -events ROOT:
//
//	logquery -root ROOT -tenant web -mode top
//
// The store is read-only here: crash damage (a torn tail under a live
// writer, a corrupt block) is tolerated and reported, never repaired —
// the verified prefix is served. Exit status: 0 on success, 1 on error,
// 2 on usage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"logparse/internal/eventstore"
	"logparse/internal/stream"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "logquery:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// result is the -json output document: the answer's count, events or
// templates (per mode) and its skip-scan stats, in an envelope.
type result struct {
	Dir  string `json:"dir"`
	Mode string `json:"mode"`
	eventstore.Answer
	Store storeInfo `json:"store"`
}

type storeInfo struct {
	Segments int    `json:"segments"`
	Blocks   int    `json:"blocks"`
	Events   int64  `json:"events"`
	LastSeq  int64  `json:"last_seq"`
	TornTail bool   `json:"torn_tail,omitempty"`
	Damaged  string `json:"damaged,omitempty"`
}

func run() (int, error) {
	var (
		dir    = flag.String("dir", "", "event store directory (exclusive with -root/-tenant)")
		root   = flag.String("root", "", "server events root; use with -tenant")
		tenant = flag.String("tenant", "", "tenant id under -root")

		ckptDir   = flag.String("checkpoint-dir", "", "engine checkpoint directory; resolves template ids to names")
		jsonOut   = flag.Bool("json", false, "emit the result as one JSON document")
		showStats = flag.Bool("stats", true, "print skip-scan effectiveness to stderr (text mode)")
	)
	// The query: eventstore.ParseRequest reads these by name.
	flag.String("mode", "count", "count, top (most frequent templates) or list (the events themselves)")
	flag.String("template", "", "comma-separated template ids to select (empty = all matched)")
	flag.Bool("unmatched", false, "include unmatched lines (template -1)")
	flag.String("from", "", "lower time bound, RFC3339 (inclusive)")
	flag.String("to", "", "upper time bound, RFC3339 (exclusive)")
	flag.Int("limit", 100, "list mode: maximum events returned")
	flag.Int("n", 10, "top mode: number of templates")
	flag.Parse()

	switch {
	case *dir != "" && (*root != "" || *tenant != ""):
		return 2, errors.New("-dir is exclusive with -root/-tenant")
	case *dir == "" && (*root == "") != (*tenant == ""):
		return 2, errors.New("-root and -tenant go together")
	case *dir == "" && *root == "":
		return 2, errors.New("a store is required: -dir DIR, or -root ROOT -tenant ID")
	}
	storeDir := *dir
	if storeDir == "" {
		storeDir = filepath.Join(*root, "tenants", *tenant)
	}
	if _, err := os.Stat(storeDir); err != nil {
		return 1, fmt.Errorf("event store %s: %w", storeDir, err)
	}

	req, err := eventstore.ParseRequest(func(name string) string { return flag.Lookup(name).Value.String() })
	if err != nil {
		return 2, fmt.Errorf("-%w", err)
	}

	names, err := loadTemplateNames(*ckptDir)
	if err != nil {
		return 1, err
	}

	rd, info, err := eventstore.OpenReader(storeDir, eventstore.ReaderOptions{})
	if err != nil {
		return 1, err
	}
	res := result{
		Dir:  storeDir,
		Mode: req.Mode,
		Store: storeInfo{
			Segments: info.Segments, Blocks: info.Blocks, Events: info.Events,
			LastSeq: info.LastSeq, TornTail: info.TornTail, Damaged: info.Damaged,
		},
	}
	if res.Answer, err = rd.Run(req, names); err != nil {
		return 1, err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return 0, enc.Encode(res)
	}
	printText(res, *showStats)
	return 0, nil
}

// loadTemplateNames maps template ids to rendered templates from the
// engine's checkpoint. The event store records the matcher's template
// index, which is the checkpoint's template order — the same engine wrote
// both, under the same checkpoint barrier.
func loadTemplateNames(ckptDir string) (map[int32]string, error) {
	if ckptDir == "" {
		return nil, nil
	}
	// Stat first: NewStore would create a mistyped directory.
	if _, err := os.Stat(ckptDir); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", ckptDir, err)
	}
	store, err := stream.NewStore(ckptDir)
	if err != nil {
		return nil, err
	}
	st, _, err := store.Load()
	if err == nil && st == nil {
		err = errors.New("no checkpoint in the directory")
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", ckptDir, err)
	}
	rendered, err := st.TemplateNames()
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", ckptDir, err)
	}
	names := make(map[int32]string, len(rendered))
	for i, name := range rendered {
		names[int32(i)] = name
	}
	return names, nil
}

func printText(res result, showStats bool) {
	if res.Store.TornTail {
		fmt.Fprintln(os.Stderr, "logquery: note: newest segment ends mid-block (live writer or crash); serving the finalized prefix")
	}
	if res.Store.Damaged != "" {
		fmt.Fprintf(os.Stderr, "logquery: note: damage past the verified prefix: %s\n", res.Store.Damaged)
	}
	switch res.Mode {
	case "count":
		fmt.Println(*res.Count)
	case "top":
		for _, row := range res.Templates {
			label := row.Name
			if label == "" {
				if row.Template == -1 {
					label = "(unmatched)"
				} else {
					label = "template " + strconv.Itoa(int(row.Template))
				}
			}
			fmt.Printf("%10d  %4d  %s\n", row.Count, row.Template, label)
		}
	case "list":
		for _, ev := range res.Events {
			label := ev.Name
			if label == "" {
				label = ev.Kind
			} else {
				label += "  [" + ev.Kind + "]"
			}
			fmt.Printf("%10d  %s  %4d  %s\n", ev.Seq, ev.Time, ev.Template, label)
		}
	}
	if showStats {
		st := res.Stats
		fmt.Fprintf(os.Stderr,
			"logquery: %d events selected; %d/%d blocks skipped, %d answered from the index, %d decompressed (%d bytes)\n",
			st.Selected, st.Skipped, st.Blocks, st.IndexOnly, st.Decompressed, st.BytesDecompressed)
	}
}
