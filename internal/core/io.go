package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The toolkit's standard I/O formats (§II-C): the input is a file of raw log
// messages, one per line; the output is two files, a log-events file listing
// the extracted templates and a structured-log file mapping each input line
// to an event ID.
//
// Dataset files produced by cmd/loggen additionally carry ground truth in a
// tab-separated prefix:
//
//	<truthID>\t<session>\t<content>
//
// ReadMessages accepts both forms.

// Format selects how message reading interprets tab-separated lines.
type Format int

const (
	// FormatAuto accepts both plain and annotated lines: a line splitting
	// into three tab-separated fields whose first two fields look like an
	// annotation (space-free, at most maxAnnotationField bytes) is
	// annotated; anything else is plain content. Lines carrying two tabs
	// that fail the validation are counted as ambiguous rather than
	// silently misparsed.
	FormatAuto Format = iota
	// FormatPlain never splits: every line is pure message content, tabs
	// and all. Use it for production logs that may legitimately contain
	// tabs.
	FormatPlain
	// FormatAnnotated requires every line to carry the ground-truth prefix;
	// lines that do not are corrupt.
	FormatAnnotated
)

// DefaultMaxLineBytes is the per-line size cap applied when
// ReadOptions.MaxLineBytes is zero.
const DefaultMaxLineBytes = 4 * 1024 * 1024

// maxAnnotationField bounds the truthID and session fields of an annotated
// line; real annotations are short identifiers, so longer fields mark a
// plain log line that happens to contain tabs.
const maxAnnotationField = 256

// ReadOptions configures ReadMessagesOpts.
type ReadOptions struct {
	// MaxLines caps the number of messages read (0 = unlimited).
	MaxLines int
	// Format selects the line format (default FormatAuto).
	Format Format
	// Strict fails the read with a *CorruptLineError at the first corrupt,
	// ambiguous, NUL-bearing or oversized line. The default (lenient) mode
	// counts such lines in ReadStats and keeps reading.
	Strict bool
	// MaxLineBytes caps one line's content (default DefaultMaxLineBytes).
	// Unlike bufio.Scanner's ErrTooLong, an over-long line does not abort
	// the read: it is truncated at the cap (or skipped, see SkipOversized)
	// and counted, and reading continues at the next line.
	MaxLineBytes int
	// SkipOversized drops over-long lines entirely instead of keeping a
	// truncated prefix.
	SkipOversized bool
}

// ReadStats reports what lenient reading tolerated.
type ReadStats struct {
	// Lines is the number of non-empty lines consumed.
	Lines int
	// Messages is the number of messages returned.
	Messages int
	// Ambiguous counts FormatAuto lines with ≥2 tabs whose fields failed
	// annotation validation and were kept as plain content.
	Ambiguous int
	// Corrupt counts skipped lines: FormatAnnotated lines without a valid
	// annotation, and NUL-bearing lines in any format.
	Corrupt int
	// Oversized counts lines longer than MaxLineBytes (truncated or
	// skipped per SkipOversized).
	Oversized int
}

// CorruptLineError is returned in strict mode when a line cannot be
// interpreted under the configured format.
type CorruptLineError struct {
	// LineNo is the 1-based physical line number in the input.
	LineNo int
	// Reason describes what made the line unreadable.
	Reason string
}

func (e *CorruptLineError) Error() string {
	return fmt.Sprintf("core: input line %d: %s", e.LineNo, e.Reason)
}

// ReadMessages reads raw log messages, one per line, in FormatAuto with
// lenient handling (corrupt and oversized lines are tolerated and their
// counts discarded). maxLines caps the number of messages read (0 means
// unlimited). Callers that need strict parsing or the tolerance counts use
// ReadMessagesOpts.
func ReadMessages(r io.Reader, maxLines int) ([]LogMessage, error) {
	msgs, _, err := ReadMessagesOpts(r, ReadOptions{MaxLines: maxLines})
	return msgs, err
}

// ReadMessagesOpts reads raw log messages under explicit format, strictness
// and line-size policies, reporting what lenient mode tolerated. Unlike a
// plain bufio.Scanner read it survives arbitrarily long lines: an over-long
// line is truncated (or skipped) and counted instead of failing the whole
// read with ErrTooLong.
func ReadMessagesOpts(r io.Reader, opts ReadOptions) ([]LogMessage, ReadStats, error) {
	var msgs []LogMessage
	stats, err := ScanMessages(r, opts, func(msg LogMessage) { msgs = append(msgs, msg) })
	if err != nil {
		return nil, stats, err
	}
	return msgs, stats, nil
}

// ScanMessages is ReadMessagesOpts one message at a time: it hands each
// message it would return to fn, in order, and keeps none of them. A
// consumer that scans the same input twice (slct.ParseStream) therefore
// sees exactly the messages ReadMessagesOpts materialises, under the same
// line policy.
func ScanMessages(r io.Reader, opts ReadOptions, fn func(LogMessage)) (ReadStats, error) {
	if opts.MaxLineBytes <= 0 {
		opts.MaxLineBytes = DefaultMaxLineBytes
	}
	br := bufio.NewReaderSize(r, 64*1024)
	var stats ReadStats
	lineNo := 0
	for {
		if opts.MaxLines > 0 && stats.Messages >= opts.MaxLines {
			break
		}
		raw, oversized, rerr := ReadLineInto(br, nil, opts.MaxLineBytes)
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return stats, fmt.Errorf("core: read messages: %w", rerr)
		}
		done := errors.Is(rerr, io.EOF)
		if len(raw) == 0 && !oversized {
			if done {
				break
			}
			lineNo++ // empty line: skipped, as before
			continue
		}
		lineNo++
		line := string(raw)
		keep := true
		if oversized {
			stats.Oversized++
			if opts.Strict {
				return stats, &CorruptLineError{LineNo: lineNo,
					Reason: fmt.Sprintf("line exceeds %d bytes", opts.MaxLineBytes)}
			}
			if opts.SkipOversized {
				keep = false
			}
		}
		if keep && strings.IndexByte(line, 0) >= 0 {
			if opts.Strict {
				return stats, &CorruptLineError{LineNo: lineNo, Reason: "line contains NUL bytes"}
			}
			stats.Corrupt++
			keep = false
		}
		if keep {
			stats.Lines++
			msg := LogMessage{LineNo: stats.Messages + 1}
			ok, err := fillMessage(&msg, line, opts, lineNo, &stats)
			if err != nil {
				return stats, err
			}
			if ok {
				msg.Tokens = Tokenize(msg.Content)
				stats.Messages++
				fn(msg)
			}
		}
		if done {
			break
		}
	}
	return stats, nil
}

// fillMessage interprets one line under the configured format, reporting
// whether the message should be kept.
func fillMessage(msg *LogMessage, line string, opts ReadOptions, lineNo int, stats *ReadStats) (bool, error) {
	switch opts.Format {
	case FormatPlain:
		msg.Content = line
		return true, nil
	case FormatAnnotated:
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) == 3 && validAnnotationField(parts[0]) && validAnnotationField(parts[1]) {
			msg.TruthID, msg.Session, msg.Content = parts[0], parts[1], parts[2]
			return true, nil
		}
		if opts.Strict {
			return false, &CorruptLineError{LineNo: lineNo, Reason: "not a valid truthID\\tsession\\tcontent annotation"}
		}
		stats.Corrupt++
		return false, nil
	default: // FormatAuto
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			msg.Content = line
			return true, nil
		}
		if validAnnotationField(parts[0]) && validAnnotationField(parts[1]) {
			msg.TruthID, msg.Session, msg.Content = parts[0], parts[1], parts[2]
			return true, nil
		}
		// A plain log line that happens to contain ≥2 tabs: keep it whole
		// rather than silently misparsing its head as ground truth.
		if opts.Strict {
			return false, &CorruptLineError{LineNo: lineNo, Reason: "ambiguous tab-separated line (neither plain nor a valid annotation)"}
		}
		stats.Ambiguous++
		msg.Content = line
		return true, nil
	}
}

// validAnnotationField reports whether a tab-separated prefix field looks
// like a real annotation: space-free and short.
func validAnnotationField[T string | []byte](f T) bool {
	return len(f) <= maxAnnotationField && indexByte(f, ' ') < 0
}

// indexByte is strings.IndexByte / bytes.IndexByte over either form of a
// line. The assertion is decided per instantiation, so both forms keep the
// standard library's vectorised scan and neither allocates.
func indexByte[T string | []byte](s T, c byte) int {
	if b, ok := any(s).([]byte); ok {
		return bytes.IndexByte(b, c)
	}
	return strings.IndexByte(string(s), c)
}

// ContentOf extracts the message content of one line, held as a string or
// as bytes, under the FormatAuto rule: a line splitting into three
// tab-separated fields whose first two look like an annotation yields its
// third field; any other line is pure content. It is the line-at-a-time
// counterpart of ReadMessagesOpts used by the ingestion engine, which
// never materialises a LogMessage. The result is a subslice of line: no
// copy, no allocation.
func ContentOf[T string | []byte](line T) T {
	t1 := indexByte(line, '\t')
	if t1 < 0 {
		return line
	}
	rest := line[t1+1:]
	t2 := indexByte(rest, '\t')
	if t2 < 0 {
		return line
	}
	if validAnnotationField(line[:t1]) && validAnnotationField(rest[:t2]) {
		return rest[t2+1:]
	}
	return line
}

// ContentOfBytes is ContentOf instantiated for the streaming hot path's
// byte lines.
func ContentOfBytes(line []byte) []byte { return ContentOf(line) }

// ReadLineInto reads one newline-terminated line of at most max content
// bytes, accumulating across internal buffer refills. When the line is
// longer, the first max bytes are returned with oversized=true and the
// remainder is discarded up to the newline — the reader stays positioned at
// the next line, unlike bufio.Scanner which aborts the whole stream with
// ErrTooLong. The returned error is io.EOF exactly at end of input (possibly
// alongside a final unterminated line). It is shared between
// ReadMessagesOpts and the streaming ingestion engine, which must tolerate
// the same line pathologies without materialising the whole input.
//
// The common case — a line that fits the reader's internal buffer — is
// returned as a direct view into that buffer with zero copies and zero
// allocations; only a line spanning buffer refills is accumulated into
// scratch's backing array (growing it when needed; nil is fine). Either way
// the returned slice is valid only until the next read from br — callers
// that keep the line must copy it first (every caller in the toolkit
// materialises or arena-copies the line before reading the next one).
func ReadLineInto(br *bufio.Reader, scratch []byte, max int) (line []byte, oversized bool, err error) {
	frag, ferr := br.ReadSlice('\n')
	if !errors.Is(ferr, bufio.ErrBufferFull) {
		// Fast path: the whole line (or the terminal fragment) is one view
		// into the reader's buffer.
		if n := len(frag); n > 0 && frag[n-1] == '\n' {
			frag = frag[:n-1]
		}
		total := len(frag)
		if total > max {
			frag = frag[:max]
		}
		if ferr == nil {
			if n := len(frag); n > 0 && frag[n-1] == '\r' {
				frag = frag[:n-1]
			}
		}
		return frag, total > max, ferr
	}
	// Slow path: the line spans internal buffer refills; accumulate into
	// scratch.
	line = scratch[:0]
	total := 0
	for {
		if n := len(frag); n > 0 && frag[n-1] == '\n' {
			frag = frag[:n-1]
		}
		total += len(frag)
		if len(line) < max {
			if room := max - len(line); len(frag) > room {
				frag = frag[:room]
			}
			line = append(line, frag...)
		}
		switch {
		case ferr == nil:
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, total > max, nil
		case errors.Is(ferr, bufio.ErrBufferFull):
			frag, ferr = br.ReadSlice('\n')
			continue
		default:
			return line, total > max, ferr
		}
	}
}

// WriteMessages writes dataset lines in the annotated tab-separated form
// readable by ReadMessages.
func WriteMessages(w io.Writer, msgs []LogMessage) error {
	bw := bufio.NewWriter(w)
	for _, m := range msgs {
		if _, err := bw.WriteString(m.TruthID + "\t" + m.Session + "\t" + m.Content + "\n"); err != nil {
			return fmt.Errorf("core: write messages: %w", err)
		}
	}
	return bw.Flush()
}

// WriteEvents writes the log-events output file: one line per template in
// "ID<TAB>template" form.
func WriteEvents(w io.Writer, r *ParseResult) error {
	bw := bufio.NewWriter(w)
	for _, t := range r.Templates {
		if _, err := bw.WriteString(t.ID + "\t" + t.String() + "\n"); err != nil {
			return fmt.Errorf("core: write events: %w", err)
		}
	}
	return bw.Flush()
}

// WriteStructured writes the structured-log output file: one line per input
// message in "lineNo<TAB>eventID" form; outliers are written with event ID
// "-" as in the SLCT convention.
func WriteStructured(w io.Writer, msgs []LogMessage, r *ParseResult) error {
	if err := r.Validate(len(msgs)); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for i, m := range msgs {
		id := "-"
		if a := r.Assignment[i]; a != OutlierID {
			id = r.Templates[a].ID
		}
		if _, err := bw.WriteString(strconv.Itoa(m.LineNo) + "\t" + id + "\n"); err != nil {
			return fmt.Errorf("core: write structured log: %w", err)
		}
	}
	return bw.Flush()
}

// ReadStructured reads a structured-log file written by WriteStructured and
// returns the event ID per line ("-" marks an outlier).
func ReadStructured(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var ids []string
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: malformed structured log line %d: %q", len(ids)+1, line)
		}
		ids = append(ids, parts[1])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: read structured log: %w", err)
	}
	return ids, nil
}
