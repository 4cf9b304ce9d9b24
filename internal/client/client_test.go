package client

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbcc/internal/engine"
	"dbcc/internal/wire"
)

// peer is the server side of an in-process pipe, scripted by a test.
// Failures are reported with t.Errorf: it runs off the test goroutine.
type peer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// expect reads one frame and checks its type.
func (p *peer) expect(typ byte) bool {
	f, err := wire.ReadFrame(p.br)
	if err != nil {
		p.t.Errorf("peer: read: %v", err)
		return false
	}
	if f.Type != typ {
		p.t.Errorf("peer: got frame 0x%02x, want 0x%02x", f.Type, typ)
		return false
	}
	return true
}

// send writes one frame.
func (p *peer) send(typ byte, payload []byte) {
	if err := wire.WriteFrame(p.conn, wire.Frame{Type: typ, Payload: payload}); err != nil {
		p.t.Errorf("peer: write: %v", err)
	}
}

// sendError writes an Error frame with the given code.
func (p *peer) sendError(code uint16, msg string) {
	p.send(wire.TypeError, wire.EncodeError(wire.WireError{Code: code, Message: msg}))
}

// pipeClient connects a Client to a scripted peer over net.Pipe, with the
// handshake bounded by timeout: the peer answers the handshake, then runs
// script. The test's cleanup closes the client and waits for the script to
// return.
func pipeClient(t *testing.T, timeout time.Duration, script func(p *peer)) *Client {
	t.Helper()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		p := &peer{t: t, conn: sc, br: bufio.NewReader(sc)}
		if !p.expect(wire.TypeHello) {
			return
		}
		p.send(wire.TypeHelloOK, wire.EncodeHelloOK(wire.HelloOK{Version: wire.ProtocolVersion}))
		script(p)
	}()
	c, err := handshake(cc, "t", "", timeout)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

// TestDialTimeoutSilentPeer dials a listener that accepts and never
// answers Hello: DialTimeout must fail within twice its timeout and leave
// no goroutine behind.
func TestDialTimeoutSilentPeer(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
		close(accepted)
	}()

	const timeout = 200 * time.Millisecond
	type result struct {
		c   *Client
		err error
	}
	res := make(chan result, 1)
	start := time.Now()
	go func() {
		c, err := DialTimeout(ln.Addr().String(), "t", "", timeout)
		res <- result{c, err}
	}()
	var r result
	select {
	case r = <-res:
	case <-time.After(2 * timeout):
		t.Errorf("DialTimeout still blocked after %v against a silent peer", 2*timeout)
	}
	ln.Close()
	for conn := range accepted {
		conn.Close()
	}
	if r.c != nil {
		r.c.Close()
		t.Fatal("DialTimeout succeeded against a peer that never answered Hello")
	}
	if t.Failed() {
		<-res // closing the peer's side unblocks the dial
		return
	}
	var ne net.Error
	if !errors.As(r.err, &ne) || !ne.Timeout() {
		t.Fatalf("DialTimeout error = %v, want a timeout", r.err)
	}
	if elapsed := time.Since(start); elapsed > 2*timeout {
		t.Fatalf("DialTimeout took %v, timeout %v", elapsed, timeout)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the dial, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHandshakeClearsDeadline pins that the handshake's deadline ends with
// the handshake: a statement answered after the dial timeout has passed
// still succeeds.
func TestHandshakeClearsDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	c := pipeClient(t, timeout, func(p *peer) {
		if !p.expect(wire.TypeExec) {
			return
		}
		time.Sleep(3 * timeout)
		p.send(wire.TypeDone, wire.EncodeDone(wire.Done{Rows: 3}))
	})
	rows, _, err := c.Exec("insert")
	if err != nil || rows != 3 {
		t.Fatalf("Exec = %d, %v; want 3 rows", rows, err)
	}
}

// TestErrorFrameIsWireError checks that Error frames surface as
// *wire.WireError and that the 429/503 predicates classify them.
func TestErrorFrameIsWireError(t *testing.T) {
	codes := []uint16{wire.CodeOverloaded, wire.CodeUnavailable, wire.CodeParse}
	c := pipeClient(t, time.Second, func(p *peer) {
		for _, code := range codes {
			if !p.expect(wire.TypeExec) {
				return
			}
			p.sendError(code, "scripted")
		}
	})
	for _, code := range codes {
		_, _, err := c.Exec("select 1")
		var we *wire.WireError
		if !errors.As(err, &we) || we.Code != code {
			t.Fatalf("Exec error = %v, want *wire.WireError with code %d", err, code)
		}
		if got, want := IsOverloaded(err), code == wire.CodeOverloaded; got != want {
			t.Errorf("code %d: IsOverloaded = %v", code, got)
		}
		if got, want := IsUnavailable(err), code == wire.CodeUnavailable; got != want {
			t.Errorf("code %d: IsUnavailable = %v", code, got)
		}
	}
}

// TestQueryResultStream checks result reassembly, NULLs included, and
// rejects a Rows chunk whose width differs from the Schema.
func TestQueryResultStream(t *testing.T) {
	c := pipeClient(t, time.Second, func(p *peer) {
		if !p.expect(wire.TypeQuery) {
			return
		}
		p.send(wire.TypeSchema, wire.EncodeSchema(wire.Schema{Cols: []string{"a", "b"}}))
		p.send(wire.TypeRows, wire.EncodeRows(wire.Rows{NCols: 2, Tags: []byte{0, 1, 0, 0}, Vals: []int64{1, 0, 3, 4}}))
		p.send(wire.TypeDone, wire.EncodeDone(wire.Done{Rows: 2}))
		if !p.expect(wire.TypeQuery) {
			return
		}
		p.send(wire.TypeSchema, wire.EncodeSchema(wire.Schema{Cols: []string{"a", "b"}}))
		p.send(wire.TypeRows, wire.EncodeRows(wire.Rows{NCols: 1, Tags: []byte{0}, Vals: []int64{7}}))
	})
	schema, rows, err := c.Query("select a, b from t")
	if err != nil {
		t.Fatal(err)
	}
	want := []engine.Row{{engine.I(1), engine.NullDatum}, {engine.I(3), engine.I(4)}}
	if len(schema) != 2 || len(rows) != len(want) {
		t.Fatalf("Query = %v, %v; want 2 columns, %v", schema, rows, want)
	}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Fatalf("row %d = %v, want %v", i, rows[i], want[i])
			}
		}
	}
	if _, _, err := c.Query("select a, b from t"); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("1-column chunk under a 2-column schema: err = %v", err)
	}
}

// TestUnexpectedFrameInResultStream checks that a frame other than Rows or
// Done in the middle of a result stream fails the query.
func TestUnexpectedFrameInResultStream(t *testing.T) {
	c := pipeClient(t, time.Second, func(p *peer) {
		if !p.expect(wire.TypeQuery) {
			return
		}
		p.send(wire.TypeSchema, wire.EncodeSchema(wire.Schema{Cols: []string{"a"}}))
		p.send(wire.TypeRows, wire.EncodeRows(wire.Rows{NCols: 1, Tags: []byte{0}, Vals: []int64{1}}))
		p.send(wire.TypePrepareOK, wire.EncodePrepareOK(wire.PrepareOK{}))
	})
	if _, _, err := c.Query("select a from t"); err == nil || !strings.Contains(err.Error(), "unexpected frame") {
		t.Fatalf("PrepareOK inside a result stream: err = %v", err)
	}
}

// TestWatchUnavailableEndsEvents checks that a Watch delivers Notify
// frames in order and, when the peer sends a 503, closes Events and
// reports the error through Err.
func TestWatchUnavailableEndsEvents(t *testing.T) {
	c := pipeClient(t, time.Second, func(p *peer) {
		if !p.expect(wire.TypeSubscribe) {
			return
		}
		p.send(wire.TypeSubscribeOK, wire.EncodeSubscribeOK(wire.SubscribeOK{Seq: 5}))
		p.send(wire.TypeNotify, wire.EncodeNotify(wire.Notify{Seq: 6, Kind: wire.NotifyMerge, From: 1, To: 2}))
		p.sendError(wire.CodeUnavailable, "draining")
	})
	w, err := c.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	if w.StartSeq() != 5 {
		t.Fatalf("StartSeq = %d, want 5", w.StartSeq())
	}
	var got []Event
	timeout := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case ev, ok := <-w.Events():
			if ok {
				got = append(got, ev)
			}
			open = ok
		case <-timeout:
			t.Fatal("Events not closed after the peer's 503")
		}
	}
	if len(got) != 1 || got[0] != (Event{Seq: 6, From: 1, To: 2}) {
		t.Fatalf("events = %+v, want one merge 1->2 at seq 6", got)
	}
	if !IsUnavailable(w.Err()) {
		t.Fatalf("Err = %v, want a 503 *wire.WireError", w.Err())
	}
}
