package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The learner snapshot shapes MarshalSnapshot writes: drain.drainState and
// spell.spellState, each with its parameters split off as they are there.
type (
	drainParams struct {
		Depth        int     `json:"depth"`
		SimThreshold float64 `json:"sim_threshold"`
		MaxChildren  int     `json:"max_children"`
	}
	drainState struct {
		drainParams
		Templates [][]string `json:"templates"`
	}
	spellParams struct {
		Tau float64 `json:"tau"`
	}
	spellState struct {
		spellParams
		Templates [][]string `json:"templates"`
	}
)

// snapshotTemplates splits fuzz data into a template list: 0xff ends a
// template and 0xfe a token (both invalid UTF-8, so the tokens still see
// every other byte). shape's low bit makes an empty input a nil list rather
// than an empty one, and its second bit turns every empty template nil.
func snapshotTemplates(data []byte, shape uint8) [][]string {
	if len(data) == 0 {
		if shape&1 != 0 {
			return nil
		}
		return [][]string{}
	}
	var tmpls [][]string
	for _, tmpl := range bytes.Split(data, []byte{0xff}) {
		var toks []string
		if len(tmpl) > 0 || shape&2 == 0 {
			toks = []string{}
			for _, tok := range bytes.Split(tmpl, []byte{0xfe}) {
				toks = append(toks, string(tok))
			}
		}
		tmpls = append(tmpls, toks)
	}
	return tmpls
}

// FuzzSnapshotJSON holds the shared appender to json.Marshal: one string,
// each template's token list, and the whole Drain- and Spell-shaped
// snapshot, byte for byte, each in a buffer sized exactly once.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add([]byte(`<>&"\`), uint8(0))
	f.Add([]byte("\x00\x01\b\t\n\f\r\x1f\xfe\x7f"), uint8(0))
	f.Add([]byte("bad \xc3\x28 utf8 \xe2\x82\xfe\xf0\x9f\x98\x80"), uint8(0))
	f.Add([]byte("line sep\u2028\xfepara sep\u2029\xff\u00e9 \u65e5\u672c"), uint8(0))
	f.Add([]byte("a\xfe*\xff\xffb\xfe\xfe"), uint8(2))
	f.Add([]byte{}, uint8(0)) // an empty template list
	f.Add([]byte{}, uint8(1)) // a nil one
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		s := string(data)
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		if n := JSONStringLen(s); n != len(want) {
			t.Fatalf("JSONStringLen(%q) = %d, want %d", s, n, len(want))
		}
		tmpls := snapshotTemplates(data, shape)
		for _, toks := range tmpls {
			want, _ := json.Marshal(toks)
			if got := AppendJSONStrings(nil, toks); !bytes.Equal(got, want) || JSONStringsLen(toks) != len(want) {
				t.Fatalf("AppendJSONStrings(%q) = %s (len %d), json.Marshal = %s", toks, got, JSONStringsLen(toks), want)
			}
		}
		dp := drainParams{Depth: 4 + int(shape%3), SimThreshold: float64(shape) / 255, MaxChildren: 100}
		sp := spellParams{Tau: 0.5 + float64(shape)/1e3}
		for _, c := range []struct {
			params, state any
		}{
			{dp, drainState{dp, tmpls}},
			{sp, spellState{sp, tmpls}},
		} {
			want, err := json.Marshal(c.state)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MarshalSnapshot(c.params, tmpls)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("MarshalSnapshot = %s\njson.Marshal    = %s", got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("MarshalSnapshot sized its buffer %d for %d bytes", cap(got), len(got))
			}
		}
	})
}
