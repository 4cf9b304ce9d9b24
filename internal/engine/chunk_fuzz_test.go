package engine

import (
	"bytes"
	"testing"
)

// FuzzChunkCodec fuzzes the spill-frame decoder with untrusted bytes: it
// must never panic or over-allocate, and anything it accepts must
// re-encode to exactly the bytes it consumed (the codec has no redundant
// representations). The seed corpus lives in testdata/fuzz/FuzzChunkCodec
// plus the generated frames below; use
// `go test -fuzz=FuzzChunkCodec ./internal/engine` to explore.
func FuzzChunkCodec(f *testing.F) {
	// Seed with well-formed frames of assorted shapes.
	shapes := []struct{ ncols, nrows int }{
		{0, 0}, {1, 0}, {0, 5}, {1, 1}, {2, 3}, {3, 64}, {2, 65}, {4, 130},
	}
	for _, s := range shapes {
		b := newChunkBuilder(s.ncols)
		for r := 0; r < s.nrows; r++ {
			for c := 0; c < s.ncols; c++ {
				b.appendCol(c, int64(r*31+c), (r+c)%5 == 0)
			}
			b.n++
		}
		f.Add(encodeChunkFrame(nil, b.finish()))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		ch, n, err := decodeChunkFrame(data)
		if err != nil {
			return // rejection is fine; panics and over-reads are not
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		if ch.length < 0 || len(ch.cols) != len(ch.nulls) {
			t.Fatalf("decoded chunk has inconsistent shape")
		}
		// Accepted frames must round-trip byte-identically: the format has
		// exactly one encoding per chunk, so re-encoding what was decoded
		// must reproduce the consumed prefix.
		re := encodeChunkFrame(nil, ch)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round-trip mismatch: consumed %d bytes, re-encoded %d", n, len(re))
		}
	})
}
