package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeHello, Payload: EncodeHello(Hello{Version: 1, Tenant: "acme", Token: "s3cret"})},
		{Type: TypeExec, Payload: []byte("CREATE TABLE t (v1, v2)")},
		{Type: TypeQuery, Payload: []byte("SELECT v1, v2 FROM t")},
		{Type: TypeDone, Payload: EncodeDone(Done{Rows: 42, QueueNanos: 1234})},
		{Type: TypeError, Payload: EncodeError(WireError{Code: CodeOverloaded, Message: "q full"})},
		{Type: TypeRows, Payload: EncodeRows(Rows{NCols: 2, Tags: []byte{0, 1, 0, 0}, Vals: []int64{7, 0, -1, 9}})},
		{Type: TypeStats, Payload: nil},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame round-trip: got %v want %v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("trailing read: %v, want EOF", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	raw := []byte{TypeExec, 0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := DecodeFrame(raw); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized decode: %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, Frame{Type: TypeRows, Payload: make([]byte, MaxFrameLen+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	hello := Hello{Version: ProtocolVersion, Tenant: "tenant_a", Token: "tok"}
	if got, err := DecodeHello(EncodeHello(hello)); err != nil || got != hello {
		t.Fatalf("hello: %+v %v", got, err)
	}
	ok := HelloOK{Version: ProtocolVersion, Namespace: "tenant_a_"}
	if got, err := DecodeHelloOK(EncodeHelloOK(ok)); err != nil || got != ok {
		t.Fatalf("hello-ok: %+v %v", got, err)
	}
	done := Done{Rows: -1, QueueNanos: 7}
	if got, err := DecodeDone(EncodeDone(done)); err != nil || got != done {
		t.Fatalf("done: %+v %v", got, err)
	}
	we := WireError{Code: CodeUnavailable, Message: "draining"}
	if got, err := DecodeError(EncodeError(we)); err != nil || got != we {
		t.Fatalf("error: %+v %v", got, err)
	}
	if !(&WireError{Code: CodeOverloaded}).Overloaded() || (&WireError{Code: CodeInternal}).Overloaded() {
		t.Fatal("Overloaded misclassifies codes")
	}
	sch := Schema{Cols: []string{"v1", "v2", "n"}}
	got, err := DecodeSchema(EncodeSchema(sch))
	if err != nil || strings.Join(got.Cols, ",") != "v1,v2,n" {
		t.Fatalf("schema: %+v %v", got, err)
	}
	pok := PrepareOK{ID: 9, NumParams: 4, IsQuery: true}
	if got, err := DecodePrepareOK(EncodePrepareOK(pok)); err != nil || got != pok {
		t.Fatalf("prepare-ok: %+v %v", got, err)
	}
	ep := ExecPrepared{ID: 9, Args: []Arg{IntArg(-3), NullArg(), TableArg("rc_graph")}}
	gotEP, err := DecodeExecPrepared(EncodeExecPrepared(ep))
	if err != nil || gotEP.ID != ep.ID || len(gotEP.Args) != 3 ||
		gotEP.Args[0] != ep.Args[0] || gotEP.Args[1] != ep.Args[1] || gotEP.Args[2] != ep.Args[2] {
		t.Fatalf("exec-prepared: %+v %v", gotEP, err)
	}
	// Argument-free execution round-trips too.
	if got, err := DecodeExecPrepared(EncodeExecPrepared(ExecPrepared{ID: 1})); err != nil || got.ID != 1 || len(got.Args) != 0 {
		t.Fatalf("exec-prepared empty: %+v %v", got, err)
	}
	cp := ClosePrepared{ID: 9}
	if got, err := DecodeClosePrepared(EncodeClosePrepared(cp)); err != nil || got != cp {
		t.Fatalf("close-prepared: %+v %v", got, err)
	}
}

func TestExecPreparedDecodeRejectsBadTags(t *testing.T) {
	// A frame carrying an unknown argument tag must be rejected, not
	// skipped: silently dropping an argument would shift every later
	// binding.
	raw := EncodeExecPrepared(ExecPrepared{ID: 1, Args: []Arg{IntArg(5)}})
	raw[6] = 9 // the first arg's tag byte (4B id + 2B count)
	if _, err := DecodeExecPrepared(raw); err == nil {
		t.Fatal("invalid arg tag accepted")
	}
	// An is-query flag outside {0,1} is equally meaningless.
	pok := EncodePrepareOK(PrepareOK{ID: 1})
	pok[len(pok)-1] = 2
	if _, err := DecodePrepareOK(pok); err == nil {
		t.Fatal("invalid is-query flag accepted")
	}
}

func TestRowsCodec(t *testing.T) {
	rs := Rows{NCols: 3, Tags: []byte{0, 0, 1, 0, 1, 0}, Vals: []int64{1, -2, 0, 4, 0, 6}}
	got, err := DecodeRows(EncodeRows(rs))
	if err != nil {
		t.Fatal(err)
	}
	if got.NRows() != 2 || got.NCols != 3 {
		t.Fatalf("shape: %d rows x %d cols", got.NRows(), got.NCols)
	}
	for i := range rs.Vals {
		if got.Tags[i] != rs.Tags[i] || got.Vals[i] != rs.Vals[i] {
			t.Fatalf("value %d: tag=%d val=%d", i, got.Tags[i], got.Vals[i])
		}
	}
	// Empty chunk round-trips too.
	if got, err := DecodeRows(EncodeRows(Rows{NCols: 2})); err != nil || got.NRows() != 0 {
		t.Fatalf("empty chunk: %+v %v", got, err)
	}
}

func TestEncodersRefuseUnrepresentableCounts(t *testing.T) {
	// A count that overflows its wire width must panic, not truncate
	// into a frame that decodes to the wrong shape.
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: wide encode did not panic", name)
			}
		}()
		f()
	}
	mustPanic("EncodeSchema", func() { EncodeSchema(Schema{Cols: make([]string, MaxCols+1)}) })
	mustPanic("EncodeRows", func() { EncodeRows(Rows{NCols: MaxCols + 1}) })
	mustPanic("EncodeExecPrepared", func() { EncodeExecPrepared(ExecPrepared{Args: make([]Arg, MaxArgs+1)}) })
	mustPanic("EncodeExecPreparedTag", func() { EncodeExecPrepared(ExecPrepared{Args: []Arg{{Tag: 7}}}) })
}

func TestDecodersRejectGarbage(t *testing.T) {
	// Truncations and trailing bytes must be rejected, never panic.
	cases := [][]byte{
		nil,
		{1},
		{1, 2, 3},
		append(EncodeHello(Hello{Tenant: "x"}), 0xee),
		append(EncodeDone(Done{}), 0x00),
		{0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for i, p := range cases {
		if _, err := DecodeHello(p); err == nil && i != 0 {
			t.Errorf("case %d: DecodeHello accepted garbage", i)
		}
		if _, err := DecodeDone(p); err == nil {
			t.Errorf("case %d: DecodeDone accepted garbage", i)
		}
		if _, err := DecodeRows(p); err == nil {
			t.Errorf("case %d: DecodeRows accepted garbage", i)
		}
	}
	// A rows chunk whose value count disagrees with its byte length.
	bad := EncodeRows(Rows{NCols: 1, Tags: []byte{0}, Vals: []int64{5}})
	bad[2]++ // bump the declared value count
	if _, err := DecodeRows(bad); err == nil {
		t.Fatal("DecodeRows accepted an inconsistent value count")
	}
	// A NULL with a non-zero payload has no canonical encoding.
	nz := EncodeRows(Rows{NCols: 1, Tags: []byte{0}, Vals: []int64{5}})
	nz[6] = 1 // flip the tag to NULL, keep the payload
	if _, err := DecodeRows(nz); err == nil {
		t.Fatal("DecodeRows accepted a non-canonical NULL")
	}
}
