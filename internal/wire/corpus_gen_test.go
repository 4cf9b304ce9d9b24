package wire

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestRegenFuzzCorpus rewrites testdata/fuzz/FuzzFrameCodec from the wire
// encoders, so the committed seeds stay canonical when the protocol
// changes. It is a no-op unless WIRE_REGEN_CORPUS=1:
//
//	WIRE_REGEN_CORPUS=1 go test -run TestRegenFuzzCorpus ./internal/wire
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("WIRE_REGEN_CORPUS") != "1" {
		t.Skip("set WIRE_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzFrameCodec")
	}
	seeds := map[string][]byte{
		"frame_hello":    AppendFrame(nil, Frame{Type: TypeHello, Payload: EncodeHello(Hello{Version: ProtocolVersion, Tenant: "acme", Token: "tok"})}),
		"frame_hello_ok": AppendFrame(nil, Frame{Type: TypeHelloOK, Payload: EncodeHelloOK(HelloOK{Version: ProtocolVersion, Namespace: "tn_acme_"})}),
		"frame_exec":     AppendFrame(nil, Frame{Type: TypeExec, Payload: []byte("DROP TABLE edges")}),
		"frame_query":    AppendFrame(nil, Frame{Type: TypeQuery, Payload: []byte("SELECT count(*) AS n FROM edges")}),
		"frame_query_cc": AppendFrame(nil, Frame{Type: TypeQuery, Payload: []byte("CONNECTED COMPONENTS OF edges USING rc SEED 2019")}),
		"frame_done":     AppendFrame(nil, Frame{Type: TypeDone, Payload: EncodeDone(Done{Rows: 7, QueueNanos: 125000})}),
		"frame_error":    AppendFrame(nil, Frame{Type: TypeError, Payload: EncodeError(WireError{Code: CodeOverloaded, Message: "tenant queue full"})}),
		"frame_schema":   AppendFrame(nil, Frame{Type: TypeSchema, Payload: EncodeSchema(Schema{Cols: []string{"v1", "v2"}})}),
		"frame_rows":     AppendFrame(nil, Frame{Type: TypeRows, Payload: EncodeRows(Rows{NCols: 2, Tags: []byte{0, 1, 0, 0}, Vals: []int64{3, 0, -9, 1}})}),
		"frame_stats":    AppendFrame(nil, Frame{Type: TypeStats}),
		"frame_stats_reply": AppendFrame(nil, Frame{
			Type: TypeStatsReply, Payload: []byte(`{"draining":false}`),
		}),
		"frame_pair": AppendFrame(
			AppendFrame(nil, Frame{Type: TypeExec, Payload: []byte("DROP TABLE edges")}),
			Frame{Type: TypeDone, Payload: EncodeDone(Done{Rows: 7, QueueNanos: 125000})}),
		"frame_prepare":    AppendFrame(nil, Frame{Type: TypePrepare, Payload: []byte("INSERT INTO $1 VALUES ($2,$3)")}),
		"frame_prepare_ok": AppendFrame(nil, Frame{Type: TypePrepareOK, Payload: EncodePrepareOK(PrepareOK{ID: 3, NumParams: 3, IsQuery: false})}),
		"frame_exec_prepared": AppendFrame(nil, Frame{
			Type: TypeExecPrepared, Payload: EncodeExecPrepared(ExecPrepared{ID: 3, Args: []Arg{TableArg("edges"), IntArg(-7), NullArg()}}),
		}),
		"frame_close_prepared": AppendFrame(nil, Frame{Type: TypeClosePrepared, Payload: EncodeClosePrepared(ClosePrepared{ID: 3})}),
		"frame_subscribe":      AppendFrame(nil, Frame{Type: TypeSubscribe, Payload: EncodeSubscribe(Subscribe{Table: "edges"})}),
		"frame_subscribe_ok":   AppendFrame(nil, Frame{Type: TypeSubscribeOK, Payload: EncodeSubscribeOK(SubscribeOK{Seq: 42})}),
		"frame_notify_merge":   AppendFrame(nil, Frame{Type: TypeNotify, Payload: EncodeNotify(Notify{Seq: 43, Kind: NotifyMerge, From: 9, To: 1})}),
		"frame_notify_rebuild": AppendFrame(nil, Frame{Type: TypeNotify, Payload: EncodeNotify(Notify{Seq: 44, Kind: NotifyRebuild})}),
		"frame_empty":          {},
		"frame_lying_hdr":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"frame_truncated":      AppendFrame(nil, Frame{Type: TypeSubscribe, Payload: EncodeSubscribe(Subscribe{Table: "edges"})})[:9],
		"frame_rows_nulls":     AppendFrame(nil, Frame{Type: TypeRows, Payload: EncodeRows(Rows{NCols: 1, Tags: []byte{1, 1}, Vals: []int64{0, 0}})}),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
