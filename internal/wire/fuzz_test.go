package wire

import (
	"bytes"
	"testing"
)

// FuzzFrameCodec fuzzes the wire-frame decoder with untrusted bytes — the
// exact stream a hostile client could write at ccserverd's socket. It
// must never panic or over-read, and anything it accepts must re-encode
// to exactly the bytes it consumed (frames and message payloads each have
// one canonical encoding). The seed corpus lives in
// testdata/fuzz/FuzzFrameCodec plus the generated frames below; use
// `go test -fuzz=FuzzFrameCodec ./internal/wire` to explore. This mirrors
// FuzzChunkCodec, the equivalent contract on the spill codec.
func FuzzFrameCodec(f *testing.F) {
	// Seed with one well-formed frame of every message shape.
	seeds := []Frame{
		{Type: TypeHello, Payload: EncodeHello(Hello{Version: ProtocolVersion, Tenant: "acme", Token: "tok"})},
		{Type: TypeHelloOK, Payload: EncodeHelloOK(HelloOK{Version: ProtocolVersion, Namespace: "t1_acme_"})},
		{Type: TypeExec, Payload: []byte("DROP TABLE edges")},
		{Type: TypeQuery, Payload: []byte("SELECT count(*) AS n FROM edges")},
		{Type: TypeQuery, Payload: []byte("CONNECTED COMPONENTS OF edges USING rc SEED 2019")},
		{Type: TypeDone, Payload: EncodeDone(Done{Rows: 7, QueueNanos: 125000})},
		{Type: TypeSchema, Payload: EncodeSchema(Schema{Cols: []string{"components", "rounds", "vertices"}})},
		{Type: TypeError, Payload: EncodeError(WireError{Code: CodeOverloaded, Message: "tenant queue full"})},
		{Type: TypeSchema, Payload: EncodeSchema(Schema{Cols: []string{"v1", "v2"}})},
		{Type: TypeRows, Payload: EncodeRows(Rows{NCols: 2, Tags: []byte{0, 1, 0, 0}, Vals: []int64{3, 0, -9, 1}})},
		{Type: TypeStats},
		{Type: TypeStatsReply, Payload: []byte(`{"draining":false}`)},
		{Type: TypePrepare, Payload: []byte("INSERT INTO $1 VALUES ($2,$3)")},
		{Type: TypePrepareOK, Payload: EncodePrepareOK(PrepareOK{ID: 3, NumParams: 3, IsQuery: false})},
		{Type: TypeExecPrepared, Payload: EncodeExecPrepared(ExecPrepared{ID: 3, Args: []Arg{TableArg("edges"), IntArg(-7), NullArg()}})},
		{Type: TypeClosePrepared, Payload: EncodeClosePrepared(ClosePrepared{ID: 3})},
		{Type: TypeSubscribe, Payload: EncodeSubscribe(Subscribe{Table: "edges"})},
		{Type: TypeSubscribeOK, Payload: EncodeSubscribeOK(SubscribeOK{Seq: 42})},
		{Type: TypeNotify, Payload: EncodeNotify(Notify{Seq: 43, Kind: NotifyMerge, From: 9, To: 1})},
		{Type: TypeNotify, Payload: EncodeNotify(Notify{Seq: 44, Kind: NotifyRebuild})},
	}
	for _, fr := range seeds {
		f.Add(AppendFrame(nil, fr))
	}
	// Two frames back to back, an empty input, and a lying header.
	f.Add(AppendFrame(AppendFrame(nil, seeds[2]), seeds[5]))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return // rejection is fine; panics and over-reads are not
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		// Accepted frames round-trip byte-identically.
		if re := AppendFrame(nil, fr); !bytes.Equal(re, data[:n]) {
			t.Fatalf("frame round-trip mismatch: consumed %d bytes, re-encoded %d", n, len(re))
		}
		// Message payload decoders must also be total and canonical: never
		// panic, and re-encode whatever they accept to the same bytes.
		switch fr.Type {
		case TypeHello:
			if h, err := DecodeHello(fr.Payload); err == nil {
				if re := EncodeHello(h); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("hello round-trip mismatch")
				}
			}
		case TypeHelloOK:
			if h, err := DecodeHelloOK(fr.Payload); err == nil {
				if re := EncodeHelloOK(h); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("hello-ok round-trip mismatch")
				}
			}
		case TypeDone:
			if d, err := DecodeDone(fr.Payload); err == nil {
				if re := EncodeDone(d); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("done round-trip mismatch")
				}
			}
		case TypeError:
			if e, err := DecodeError(fr.Payload); err == nil {
				if re := EncodeError(e); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("error round-trip mismatch")
				}
			}
		case TypeSchema:
			if s, err := DecodeSchema(fr.Payload); err == nil {
				if re := EncodeSchema(s); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("schema round-trip mismatch")
				}
			}
		case TypeRows:
			if rs, err := DecodeRows(fr.Payload); err == nil {
				if re := EncodeRows(rs); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("rows round-trip mismatch")
				}
			}
		case TypePrepareOK:
			if p, err := DecodePrepareOK(fr.Payload); err == nil {
				if re := EncodePrepareOK(p); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("prepare-ok round-trip mismatch")
				}
			}
		case TypeExecPrepared:
			if e, err := DecodeExecPrepared(fr.Payload); err == nil {
				if re := EncodeExecPrepared(e); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("exec-prepared round-trip mismatch")
				}
			}
		case TypeClosePrepared:
			if c, err := DecodeClosePrepared(fr.Payload); err == nil {
				if re := EncodeClosePrepared(c); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("close-prepared round-trip mismatch")
				}
			}
		case TypeSubscribe:
			if s, err := DecodeSubscribe(fr.Payload); err == nil {
				if re := EncodeSubscribe(s); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("subscribe round-trip mismatch")
				}
			}
		case TypeSubscribeOK:
			if s, err := DecodeSubscribeOK(fr.Payload); err == nil {
				if re := EncodeSubscribeOK(s); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("subscribe-ok round-trip mismatch")
				}
			}
		case TypeNotify:
			if nt, err := DecodeNotify(fr.Payload); err == nil {
				if re := EncodeNotify(nt); !bytes.Equal(re, fr.Payload) {
					t.Fatalf("notify round-trip mismatch")
				}
			}
		}
	})
}
