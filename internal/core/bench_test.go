package core_test

import (
	"testing"

	"logparse/internal/core"
	"logparse/internal/gen"
)

// BenchmarkTokenizeBytes times the streaming tokenizer on each dataset's
// generated content, 20 k lines per op, and reports ns/line.
func BenchmarkTokenizeBytes(b *testing.B) {
	const lines = 20000
	for _, name := range gen.AllNames() {
		cat, err := gen.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		msgs := cat.Generate(1, lines)
		content := make([][]byte, len(msgs))
		for i, m := range msgs {
			content[i] = []byte(m.Content)
		}
		b.Run(name, func(b *testing.B) {
			var buf [][]byte
			for i := 0; i < b.N; i++ {
				for _, c := range content {
					buf = core.TokenizeBytes(c, buf)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}
