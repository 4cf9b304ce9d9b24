// Package wire defines the length-prefixed protocol ccserverd speaks on
// the network and the message payload codecs shared by the server
// (internal/server) and the Go client (internal/client).
//
// # Frame grammar
//
// Every message travels in one frame:
//
//	frame   := type:byte length:uint32be payload:length*byte
//
// The type byte selects a message; the big-endian uint32 is the payload
// length in bytes. Frames larger than MaxFrameLen are rejected before any
// allocation, so a corrupt or hostile peer cannot make the server reserve
// gigabytes from four bytes of header. The frame layer carries no
// checksums or compression — the protocol is designed for trusted
// datacenter links, like the segment interconnect it sits on top of.
//
// Payload encodings are fixed-width little-endian integers and uint32
// length-prefixed strings. Every message has exactly one encoding: the
// decoder consumes the whole payload and rejects trailing garbage, so
// decode∘encode is the identity and FuzzFrameCodec can assert exact
// round-trips on anything the decoder accepts.
//
// # Message flow
//
// Clients speak first: a Hello carrying the protocol version, the tenant
// name and an optional auth token. The server answers HelloOK (or Error
// with CodeAuth) and the connection becomes a statement loop — each
// Exec/Query/Stats request is answered by exactly one terminal frame
// (Done, StatsReply or Error), with Schema and Rows frames streamed
// before Done for Query. A connected-components run is a Query of the
// statement CONNECTED COMPONENTS OF, whose one row is its result. A
// connection carries one statement at a time; concurrency comes from
// opening more connections.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is negotiated in Hello; the server rejects clients
// whose major version differs.
const ProtocolVersion = 1

// MaxFrameLen bounds a frame payload (16 MiB). Result sets larger than
// this stream as multiple Rows frames, so the cap is never a limit on
// query size — only on single-frame allocation.
const MaxFrameLen = 16 << 20

// Frame types. Requests (client→server) sit below 0x80, responses above.
// 0x04 and 0x86 once carried a dedicated connected-components request and
// reply; they stay unassigned so an old peer's frame is never misread.
const (
	TypeHello         byte = 0x01 // auth + tenant select
	TypeExec          byte = 0x02 // statement script; reply: Done | Error
	TypeQuery         byte = 0x03 // SELECT or CONNECTED COMPONENTS OF; reply: Schema, Rows*, Done | Error
	TypeStats         byte = 0x05 // server stats probe; reply: StatsReply
	TypePrepare       byte = 0x06 // $N statement text; reply: PrepareOK | Error
	TypeExecPrepared  byte = 0x07 // bound execution; reply: Done | (Schema, Rows*, Done) | Error
	TypeClosePrepared byte = 0x08 // release a prepared statement; reply: Done | Error
	TypeSubscribe     byte = 0x09 // watch a table's component index; reply: SubscribeOK, Notify* | Error
	TypeHelloOK       byte = 0x81
	TypeSchema        byte = 0x82
	TypeRows          byte = 0x83
	TypeDone          byte = 0x84
	TypeError         byte = 0x85
	TypeStatsReply    byte = 0x87 // payload: JSON-encoded ServerStats
	TypePrepareOK     byte = 0x88
	TypeSubscribeOK   byte = 0x89
	TypeNotify        byte = 0x8a
)

// Error codes carried by Error frames, HTTP-flavoured so overload reads
// as the 429 it is.
const (
	CodeParse       uint16 = 400 // statement failed to parse or plan
	CodeAuth        uint16 = 401 // bad token or malformed tenant name
	CodeNotFound    uint16 = 404 // unknown prepared statement / component index
	CodeOverloaded  uint16 = 429 // admission queue full or queue wait timed out
	CodeInternal    uint16 = 500 // execution error
	CodeUnavailable uint16 = 503 // server draining; retry elsewhere/later
)

// frameHeaderLen is the type byte plus the uint32 payload length.
const frameHeaderLen = 5

// Frame is one wire frame.
type Frame struct {
	Type    byte
	Payload []byte
}

// ErrFrameTooLarge rejects frames whose header announces more than
// MaxFrameLen payload bytes.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameLen")

// AppendFrame appends f's encoding to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, f.Type)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	return append(dst, f.Payload...)
}

// DecodeFrame decodes one frame from the head of data, returning the
// frame and the number of bytes consumed. An incomplete header or payload
// is an error (the stream reader never presents partial buffers; the
// fuzzer does).
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < frameHeaderLen {
		return Frame{}, 0, fmt.Errorf("wire: short frame header: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data[1:frameHeaderLen])
	if n > MaxFrameLen {
		return Frame{}, 0, ErrFrameTooLarge
	}
	end := frameHeaderLen + int(n)
	if len(data) < end {
		return Frame{}, 0, fmt.Errorf("wire: frame payload truncated: have %d of %d bytes", len(data)-frameHeaderLen, n)
	}
	return Frame{Type: data[0], Payload: data[frameHeaderLen:end]}, end, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameLen {
		return ErrFrameTooLarge
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = f.Type
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads one frame from r, rejecting oversized payloads before
// allocating them.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameLen {
		return Frame{}, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: reading %d-byte payload: %w", n, err)
	}
	return Frame{Type: hdr[0], Payload: payload}, nil
}

// payload cursor helpers ----------------------------------------------------

// errTruncated is the shared "payload ended early" decode error.
var errTruncated = errors.New("wire: truncated payload")

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || r.off+int(n) > len(r.data) || int(n) < 0 {
		r.fail()
		return ""
	}
	v := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return v
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

// done requires the cursor to have consumed the payload exactly: trailing
// bytes would give one message two encodings and break round-tripping.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing payload bytes", len(r.data)-r.off)
	}
	return nil
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// messages ------------------------------------------------------------------

// Hello opens a connection: protocol version, tenant selection and an
// optional shared-secret token.
type Hello struct {
	Version byte
	Tenant  string
	Token   string
}

// EncodeHello encodes h as a TypeHello frame payload.
func EncodeHello(h Hello) []byte {
	out := []byte{h.Version}
	out = appendStr(out, h.Tenant)
	out = appendStr(out, h.Token)
	return out
}

// DecodeHello decodes a TypeHello payload.
func DecodeHello(p []byte) (Hello, error) {
	r := &reader{data: p}
	h := Hello{Version: r.u8(), Tenant: r.str(), Token: r.str()}
	return h, r.done()
}

// HelloOK acknowledges a handshake.
type HelloOK struct {
	Version byte
	// Namespace is the tenant's physical catalog prefix, surfaced so
	// clients can log which catalog they landed in.
	Namespace string
}

// EncodeHelloOK encodes h as a TypeHelloOK frame payload.
func EncodeHelloOK(h HelloOK) []byte {
	out := []byte{h.Version}
	return appendStr(out, h.Namespace)
}

// DecodeHelloOK decodes a TypeHelloOK payload.
func DecodeHelloOK(p []byte) (HelloOK, error) {
	r := &reader{data: p}
	h := HelloOK{Version: r.u8(), Namespace: r.str()}
	return h, r.done()
}

// Exec and Query payloads are the raw statement text; no further framing.

// Done terminates a successful Exec or Query: the row count the statement
// produced and the time the statement waited in the admission queue.
type Done struct {
	Rows       int64
	QueueNanos int64
}

// EncodeDone encodes d as a TypeDone frame payload.
func EncodeDone(d Done) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(d.Rows))
	return binary.LittleEndian.AppendUint64(out, uint64(d.QueueNanos))
}

// DecodeDone decodes a TypeDone payload.
func DecodeDone(p []byte) (Done, error) {
	r := &reader{data: p}
	d := Done{Rows: r.i64(), QueueNanos: r.i64()}
	return d, r.done()
}

// WireError is the typed failure a server sends instead of a result.
type WireError struct {
	Code    uint16
	Message string
}

// Error implements the error interface.
func (e *WireError) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Message)
}

// Overloaded reports whether the error is the 429-style admission
// rejection (queue full or queue-wait timeout).
func (e *WireError) Overloaded() bool { return e.Code == CodeOverloaded }

// EncodeError encodes e as a TypeError frame payload.
func EncodeError(e WireError) []byte {
	out := binary.LittleEndian.AppendUint16(nil, e.Code)
	return appendStr(out, e.Message)
}

// DecodeError decodes a TypeError payload.
func DecodeError(p []byte) (WireError, error) {
	r := &reader{data: p}
	e := WireError{Code: r.u16(), Message: r.str()}
	return e, r.done()
}

// Schema carries a result set's column names.
type Schema struct {
	Cols []string
}

// MaxCols bounds the column count of one Schema or Rows frame: the wire
// carries it as a uint16, so wider shapes are unrepresentable. Encoders
// panic rather than silently truncate; servers should reject wider
// results before encoding.
const MaxCols = 1<<16 - 1

// EncodeSchema encodes s as a TypeSchema frame payload. It panics when
// the schema is wider than MaxCols — truncating the count would encode
// a frame that decodes to the wrong shape.
func EncodeSchema(s Schema) []byte {
	if len(s.Cols) > MaxCols {
		panic(fmt.Sprintf("wire: schema has %d columns, max %d", len(s.Cols), MaxCols))
	}
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(s.Cols)))
	for _, c := range s.Cols {
		out = appendStr(out, c)
	}
	return out
}

// DecodeSchema decodes a TypeSchema payload.
func DecodeSchema(p []byte) (Schema, error) {
	r := &reader{data: p}
	n := int(r.u16())
	s := Schema{}
	for i := 0; i < n && r.err == nil; i++ {
		s.Cols = append(s.Cols, r.str())
	}
	return s, r.done()
}

// Rows is one chunk of a streamed result set: row-major values, each a
// null-tag byte plus a little-endian int64 payload — the same 9-byte
// value width the engine charges on its segment interconnect
// (engine.DatumWireSize).
type Rows struct {
	NCols int
	// Tags[i] is 1 when value i is SQL NULL, 0 otherwise; Vals[i] is the
	// integer payload (0 for NULL).
	Tags []byte
	Vals []int64
}

// NRows returns the number of rows in the chunk.
func (r Rows) NRows() int {
	if r.NCols == 0 {
		return 0
	}
	return len(r.Vals) / r.NCols
}

// EncodeRows encodes r as a TypeRows frame payload. It panics when
// NCols exceeds MaxCols or the value count overflows the wire's uint32
// — truncating either count would encode a corrupt frame.
func EncodeRows(rs Rows) []byte {
	if rs.NCols > MaxCols {
		panic(fmt.Sprintf("wire: rows chunk has %d columns, max %d", rs.NCols, MaxCols))
	}
	if uint64(len(rs.Vals)) > 1<<32-1 {
		panic(fmt.Sprintf("wire: rows chunk has %d values, max %d", len(rs.Vals), uint32(1<<32-1)))
	}
	out := binary.LittleEndian.AppendUint16(nil, uint16(rs.NCols))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rs.Vals)))
	for i, v := range rs.Vals {
		out = append(out, rs.Tags[i])
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

// DecodeRows decodes a TypeRows payload.
func DecodeRows(p []byte) (Rows, error) {
	r := &reader{data: p}
	rs := Rows{NCols: int(r.u16())}
	n := r.u32()
	if r.err == nil {
		// Each value is 9 bytes; reject impossible counts before allocating.
		if rem := len(p) - r.off; int(n) < 0 || int(n)*9 != rem {
			return Rows{}, fmt.Errorf("wire: rows chunk declares %d values with %d payload bytes", n, rem)
		}
		// A chunk's values must tile into whole rows.
		if rs.NCols == 0 && n > 0 {
			return Rows{}, errors.New("wire: rows chunk has values but zero columns")
		}
		if rs.NCols > 0 && int(n)%rs.NCols != 0 {
			return Rows{}, fmt.Errorf("wire: %d values do not tile into %d columns", n, rs.NCols)
		}
		rs.Tags = make([]byte, n)
		rs.Vals = make([]int64, n)
		for i := 0; i < int(n); i++ {
			tag := r.u8()
			if tag > 1 {
				return Rows{}, fmt.Errorf("wire: invalid null tag %d", tag)
			}
			rs.Tags[i] = tag
			rs.Vals[i] = r.i64()
			if rs.Tags[i] == 1 && rs.Vals[i] != 0 {
				return Rows{}, errors.New("wire: NULL value carries a non-zero payload")
			}
		}
	}
	if err := r.done(); err != nil {
		return Rows{}, err
	}
	return rs, nil
}

// prepared statements -------------------------------------------------------

// A TypePrepare payload is the raw $N statement text, like Exec; the reply
// is a PrepareOK carrying the server-assigned statement ID.

// PrepareOK acknowledges a Prepare: the per-connection statement ID, the
// parameter count, and whether execution streams rows (a single SELECT).
type PrepareOK struct {
	ID        uint32
	NumParams uint16
	IsQuery   bool
}

// EncodePrepareOK encodes p as a TypePrepareOK frame payload.
func EncodePrepareOK(p PrepareOK) []byte {
	out := binary.LittleEndian.AppendUint32(nil, p.ID)
	out = binary.LittleEndian.AppendUint16(out, p.NumParams)
	q := byte(0)
	if p.IsQuery {
		q = 1
	}
	return append(out, q)
}

// DecodePrepareOK decodes a TypePrepareOK payload.
func DecodePrepareOK(p []byte) (PrepareOK, error) {
	r := &reader{data: p}
	ok := PrepareOK{ID: r.u32(), NumParams: r.u16()}
	q := r.u8()
	if r.err == nil && q > 1 {
		return PrepareOK{}, fmt.Errorf("wire: invalid is-query flag %d", q)
	}
	ok.IsQuery = q == 1
	return ok, r.done()
}

// Argument kind tags of an ExecPrepared payload.
const (
	ArgTagInt   byte = 0 // little-endian int64 value
	ArgTagNull  byte = 1 // SQL NULL, no payload
	ArgTagTable byte = 2 // length-prefixed table name
)

// Arg is one bound parameter of an ExecPrepared: an integer, NULL, or a
// table name.
type Arg struct {
	Tag   byte
	Int   int64  // ArgTagInt payload
	Table string // ArgTagTable payload
}

// IntArg, NullArg and TableArg build the three argument kinds.
func IntArg(v int64) Arg       { return Arg{Tag: ArgTagInt, Int: v} }
func NullArg() Arg             { return Arg{Tag: ArgTagNull} }
func TableArg(name string) Arg { return Arg{Tag: ArgTagTable, Table: name} }

// ExecPrepared executes a prepared statement with bound arguments. The
// reply mirrors Exec or Query depending on the statement kind.
type ExecPrepared struct {
	ID   uint32
	Args []Arg
}

// MaxArgs bounds the argument count of one ExecPrepared frame — far above
// the SQL layer's own parameter cap, so the wire is never the limit.
const MaxArgs = 1<<16 - 1

// EncodeExecPrepared encodes e as a TypeExecPrepared frame payload. It
// panics when the argument count exceeds MaxArgs — truncating it would
// encode a frame that decodes to the wrong binding.
func EncodeExecPrepared(e ExecPrepared) []byte {
	if len(e.Args) > MaxArgs {
		panic(fmt.Sprintf("wire: exec-prepared has %d args, max %d", len(e.Args), MaxArgs))
	}
	out := binary.LittleEndian.AppendUint32(nil, e.ID)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(e.Args)))
	for _, a := range e.Args {
		out = append(out, a.Tag)
		switch a.Tag {
		case ArgTagInt:
			out = binary.LittleEndian.AppendUint64(out, uint64(a.Int))
		case ArgTagNull:
		case ArgTagTable:
			out = appendStr(out, a.Table)
		default:
			panic(fmt.Sprintf("wire: invalid arg tag %d", a.Tag))
		}
	}
	return out
}

// DecodeExecPrepared decodes a TypeExecPrepared payload.
func DecodeExecPrepared(p []byte) (ExecPrepared, error) {
	r := &reader{data: p}
	e := ExecPrepared{ID: r.u32()}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		a := Arg{Tag: r.u8()}
		switch a.Tag {
		case ArgTagInt:
			a.Int = r.i64()
		case ArgTagNull:
		case ArgTagTable:
			a.Table = r.str()
		default:
			return ExecPrepared{}, fmt.Errorf("wire: invalid arg tag %d", a.Tag)
		}
		e.Args = append(e.Args, a)
	}
	return e, r.done()
}

// ClosePrepared releases a prepared statement's server-side resources.
type ClosePrepared struct {
	ID uint32
}

// EncodeClosePrepared encodes c as a TypeClosePrepared frame payload.
func EncodeClosePrepared(c ClosePrepared) []byte {
	return binary.LittleEndian.AppendUint32(nil, c.ID)
}

// DecodeClosePrepared decodes a TypeClosePrepared payload.
func DecodeClosePrepared(p []byte) (ClosePrepared, error) {
	r := &reader{data: p}
	c := ClosePrepared{ID: r.u32()}
	return c, r.done()
}

// Subscribe asks the server to stream component-index events for a table.
// The server answers SubscribeOK (carrying the index sequence number as of
// registration) and then a Notify frame per event until the connection
// closes or the server drains, which it signals with a terminal Error frame
// (CodeUnavailable). A subscription is terminal for the connection: no
// further requests are read after it.
type Subscribe struct {
	Table string
}

// EncodeSubscribe encodes s as a TypeSubscribe frame payload.
func EncodeSubscribe(s Subscribe) []byte {
	return appendStr(nil, s.Table)
}

// DecodeSubscribe decodes a TypeSubscribe payload.
func DecodeSubscribe(p []byte) (Subscribe, error) {
	r := &reader{data: p}
	s := Subscribe{Table: r.str()}
	return s, r.done()
}

// SubscribeOK acknowledges a Subscribe: Seq is the component index's
// sequence number at registration time, so the client can anchor the
// gap-free Notify sequence that follows.
type SubscribeOK struct {
	Seq uint64
}

// EncodeSubscribeOK encodes s as a TypeSubscribeOK frame payload.
func EncodeSubscribeOK(s SubscribeOK) []byte {
	return binary.LittleEndian.AppendUint64(nil, s.Seq)
}

// DecodeSubscribeOK decodes a TypeSubscribeOK payload.
func DecodeSubscribeOK(p []byte) (SubscribeOK, error) {
	r := &reader{data: p}
	s := SubscribeOK{Seq: r.u64()}
	return s, r.done()
}

// Notify event kinds. These are wire-protocol values (they mirror the
// engine's IndexEventMerge/IndexEventRebuild) and must not be renumbered.
const (
	NotifyMerge   byte = 0 // From's component was merged into To's
	NotifyRebuild byte = 1 // labelling rebuilt; From/To are zero
)

// Notify is one component-index event. Seq increases by exactly one per
// event on a subscription; a gap means frames were lost and the client
// should treat the subscription as broken.
type Notify struct {
	Seq  uint64
	Kind byte // NotifyMerge or NotifyRebuild
	From int64
	To   int64
}

// EncodeNotify encodes n as a TypeNotify frame payload.
func EncodeNotify(n Notify) []byte {
	out := binary.LittleEndian.AppendUint64(nil, n.Seq)
	out = append(out, n.Kind)
	out = binary.LittleEndian.AppendUint64(out, uint64(n.From))
	return binary.LittleEndian.AppendUint64(out, uint64(n.To))
}

// DecodeNotify decodes a TypeNotify payload.
func DecodeNotify(p []byte) (Notify, error) {
	r := &reader{data: p}
	n := Notify{Seq: r.u64(), Kind: r.u8(), From: r.i64(), To: r.i64()}
	if r.err == nil && n.Kind > NotifyRebuild {
		return Notify{}, fmt.Errorf("wire: invalid notify kind %d", n.Kind)
	}
	return n, r.done()
}

// TenantStats is the admission accounting of one tenant, part of
// ServerStats.
type TenantStats struct {
	Admitted      int64 `json:"admitted"`        // statements that acquired a slot
	Active        int64 `json:"active"`          // statements executing now
	Queued        int64 `json:"queued"`          // statements waiting now
	QueuedTotal   int64 `json:"queued_total"`    // statements that ever waited
	PeakQueued    int64 `json:"peak_queued"`     // highest simultaneous queue depth
	QueueNanos    int64 `json:"queue_nanos"`     // total time spent waiting
	ShedQueueFull int64 `json:"shed_queue_full"` // rejected: queue at capacity
	ShedTimeout   int64 `json:"shed_timeout"`    // rejected: queue wait exceeded the timeout
}

// ServerStats is the payload of a StatsReply, JSON-encoded for
// extensibility (it is an observability surface, not a hot path).
type ServerStats struct {
	Draining       bool  `json:"draining"`
	Conns          int64 `json:"conns"`
	ConnsTotal     int64 `json:"conns_total"`
	Statements     int64 `json:"statements"`
	Failed         int64 `json:"failed"`      // statements that returned Error (overload included)
	Shed           int64 `json:"shed"`        // admission rejections across tenants
	QueueDepth     int64 `json:"queue_depth"` // statements waiting right now, all tenants
	PeakQueueDepth int64 `json:"peak_queue_depth"`
	// Prepared-statement and plan-cache accounting of the shared engine.
	Prepared               int64 `json:"prepared"` // prepared statements currently held, all connections
	Parses                 int64 `json:"parses"`   // SQL texts parsed by the engine
	PlanCacheHits          int64 `json:"plan_cache_hits"`
	PlanCacheMisses        int64 `json:"plan_cache_misses"`
	PlanCacheInvalidations int64 `json:"plan_cache_invalidations"`
	PlanCacheEntries       int64 `json:"plan_cache_entries"`
	// Component-index maintenance and subscription fan-out accounting.
	Watchers           int64                  `json:"watchers"` // live subscriptions right now
	WatchersTotal      int64                  `json:"watchers_total"`
	Notifies           int64                  `json:"notifies"` // Notify frames written, all subscriptions
	IndexLabelsTouched int64                  `json:"index_labels_touched"`
	IndexMerges        int64                  `json:"index_merges"`
	IndexRebuilds      int64                  `json:"index_rebuilds"`
	Tenants            map[string]TenantStats `json:"tenants"`
}
