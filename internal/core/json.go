package core

import (
	"encoding/json"
	"unicode/utf8"
)

// The appenders below write what encoding/json's Marshal writes for strings,
// string lists and template lists, byte for byte, into a buffer the caller
// sized once with the matching Len function. They serve the learner
// snapshots and the checkpoint bases, whose size is the whole template set:
// json.Marshal grows such a buffer by doubling, copies it once more for its
// result and then returns the grown buffer to its package-level pool, where
// the next small Marshal (a checkpoint delta) takes it out and puts it back,
// so it survives every garbage collection in between.

// asciiEsc is the escape encoding/json writes for each ASCII byte inside a
// string, empty for a byte written as itself: control bytes, the quote and
// backslash, and the HTML-sensitive <, > and &.
var asciiEsc = func() (t [utf8.RuneSelf]string) {
	const hex = "0123456789abcdef"
	for c := range t {
		if c < 0x20 || c == '<' || c == '>' || c == '&' {
			t[c] = `\u00` + string(hex[c>>4]) + string(hex[c&0xf])
		}
	}
	t['"'], t['\\'] = `\"`, `\\`
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	return t
}()

// jsonSafe marks the bytes written as themselves: ASCII without an escape.
// Every other byte takes jsonCharAt's slower look.
var jsonSafe = func() (t [256]bool) {
	for c, esc := range asciiEsc {
		t[c] = esc == ""
	}
	return t
}()

// jsonCharAt reports the character of s at byte i: how many bytes of s it
// spans and the escape written for it (empty when it is written as itself).
// A byte that starts no valid UTF-8 sequence becomes U+FFFD, and the line and
// paragraph separators are escaped, as encoding/json does.
func jsonCharAt(s string, i int) (size int, esc string) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, asciiEsc[c]
	}
	r, size := utf8.DecodeRuneInString(s[i:])
	switch {
	case r == utf8.RuneError && size == 1:
		return 1, `\ufffd`
	case r == '\u2028':
		return size, `\u2028`
	case r == '\u2029':
		return size, `\u2029`
	}
	return size, ""
}

// JSONStringLen is len(AppendJSONString(nil, s)).
func JSONStringLen(s string) int {
	n := len(`""`) + len(s)
	for i := 0; i < len(s); {
		if jsonSafe[s[i]] {
			i++
			continue
		}
		size, esc := jsonCharAt(s, i)
		if esc != "" {
			n += len(esc) - size
		}
		i += size
	}
	return n
}

// AppendJSONString appends s as json.Marshal encodes a string.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if jsonSafe[s[i]] {
			i++
			continue
		}
		size, esc := jsonCharAt(s, i)
		if esc != "" {
			b = append(append(b, s[start:i]...), esc...)
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// AppendJSONList appends xs as json.Marshal encodes a slice, each element
// by appendElem: null when xs is nil.
func AppendJSONList[T any](b []byte, xs []T, appendElem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendElem(b, x)
	}
	return append(b, ']')
}

// JSONListLen is len(AppendJSONList(nil, xs, appendElem)), elemLen giving
// each element's length.
func JSONListLen[T any](xs []T, elemLen func(T) int) int {
	if xs == nil {
		return len("null")
	}
	n := len("[]") + max(len(xs)-1, 0)
	for _, x := range xs {
		n += elemLen(x)
	}
	return n
}

// AppendJSONStrings appends ss as json.Marshal encodes a []string.
func AppendJSONStrings(b []byte, ss []string) []byte { return AppendJSONList(b, ss, AppendJSONString) }

// JSONStringsLen is len(AppendJSONStrings(nil, ss)).
func JSONStringsLen(ss []string) int { return JSONListLen(ss, JSONStringLen) }

// MarshalSnapshot is json.Marshal of a learner snapshot whose last member is
// "templates": the object params marshals to — the learner's parameters,
// small — followed by "templates" holding tmpls, each group's tokens in
// creation order. The state-sized part is appended into a buffer allocated
// once at its final size.
func MarshalSnapshot(params any, tmpls [][]string) ([]byte, error) {
	head, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	head = head[:len(head)-1] // the closing brace
	if len(head) > 1 {
		head = append(head, ',')
	}
	const member = `"templates":`
	b := make([]byte, 0, len(head)+len(member)+JSONListLen(tmpls, JSONStringsLen)+len("}"))
	b = AppendJSONList(append(append(b, head...), member...), tmpls, AppendJSONStrings)
	return append(b, '}'), nil
}
