// Package client is the Go client for ccserverd's wire protocol: dial,
// select a tenant, then issue SQL statements, streamed SELECTs and
// connected-components runs (CONNECTED COMPONENTS OF statements) over one
// TCP connection.
//
// A Client carries one statement at a time (the protocol is strictly
// request/reply); open one Client per goroutine for concurrency, exactly
// as the bench load generator does. Admission rejections surface as
// *wire.WireError with code 429 — test with IsOverloaded — so callers
// can tell "server is protecting itself, back off" apart from "my
// statement is wrong".
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"dbcc/internal/engine"
	"dbcc/internal/wire"
)

// Client is one authenticated connection to a ccserverd.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// CCResult is the reply to a ConnectedComponents run over the wire.
type CCResult struct {
	Components int64
	Rounds     int64
	Vertices   int64
}

// IsOverloaded reports whether err is the server's 429-style admission
// rejection (tenant statement cap reached with a full queue, or the
// queue wait timed out) — the signal to back off and retry.
func IsOverloaded(err error) bool {
	var we *wire.WireError
	return errors.As(err, &we) && we.Overloaded()
}

// IsUnavailable reports whether err is the server's 503: draining for
// shutdown, or the statement was cancelled by it.
func IsUnavailable(err error) bool {
	var we *wire.WireError
	return errors.As(err, &we) && we.Code == wire.CodeUnavailable
}

// Dial connects and authenticates: tenant selects the catalog this
// connection operates in, token must match the server's configured
// secret (empty when the server runs without auth).
func Dial(addr, tenant, token string) (*Client, error) {
	return DialTimeout(addr, tenant, token, 10*time.Second)
}

// DialTimeout is Dial with a timeout that bounds both the TCP connect and
// the Hello/HelloOK handshake, so a peer that accepts and never answers
// fails the dial instead of blocking it. A non-positive timeout waits
// forever.
func DialTimeout(addr, tenant, token string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c, err := handshake(conn, tenant, token, timeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// handshake authenticates a fresh connection. With a positive timeout the
// exchange runs under a connection deadline, cleared once it succeeds so
// later statements may take as long as they need.
func handshake(conn net.Conn, tenant, token string, timeout time.Duration) (*Client, error) {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	hello := wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, Tenant: tenant, Token: token})
	if err := c.send(wire.Frame{Type: wire.TypeHello, Payload: hello}); err != nil {
		return nil, err
	}
	f, err := c.recv()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TypeHelloOK {
		return nil, fmt.Errorf("client: handshake answered with frame 0x%02x", f.Type)
	}
	if _, err := wire.DecodeHelloOK(f.Payload); err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(f wire.Frame) error {
	if err := wire.WriteFrame(c.bw, f); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads one frame, turning Error frames into *wire.WireError.
func (c *Client) recv() (wire.Frame, error) {
	f, err := wire.ReadFrame(c.br)
	if err != nil {
		return wire.Frame{}, err
	}
	if f.Type == wire.TypeError {
		we, derr := wire.DecodeError(f.Payload)
		if derr != nil {
			return wire.Frame{}, derr
		}
		return wire.Frame{}, &we
	}
	return f, nil
}

// Exec runs a statement script, returning the last statement's row count
// and the time the script waited in the admission queue.
func (c *Client) Exec(src string) (rows int64, queued time.Duration, err error) {
	if err := c.send(wire.Frame{Type: wire.TypeExec, Payload: []byte(src)}); err != nil {
		return 0, 0, err
	}
	f, err := c.recv()
	if err != nil {
		return 0, 0, err
	}
	if f.Type != wire.TypeDone {
		return 0, 0, fmt.Errorf("client: Exec answered with frame 0x%02x", f.Type)
	}
	d, err := wire.DecodeDone(f.Payload)
	if err != nil {
		return 0, 0, err
	}
	return d.Rows, time.Duration(d.QueueNanos), nil
}

// Query runs a SELECT and returns the full result set (streamed from the
// server in bounded chunks, reassembled here).
func (c *Client) Query(src string) (engine.Schema, []engine.Row, error) {
	if err := c.send(wire.Frame{Type: wire.TypeQuery, Payload: []byte(src)}); err != nil {
		return nil, nil, err
	}
	return c.readResult()
}

// readResult reassembles a streamed Schema, Rows*, Done reply.
func (c *Client) readResult() (engine.Schema, []engine.Row, error) {
	f, err := c.recv()
	if err != nil {
		return nil, nil, err
	}
	if f.Type != wire.TypeSchema {
		return nil, nil, fmt.Errorf("client: Query answered with frame 0x%02x, want Schema", f.Type)
	}
	sch, err := wire.DecodeSchema(f.Payload)
	if err != nil {
		return nil, nil, err
	}
	schema := engine.Schema(sch.Cols)
	var rows []engine.Row
	for {
		f, err := c.recv()
		if err != nil {
			return nil, nil, err
		}
		switch f.Type {
		case wire.TypeRows:
			chunk, err := wire.DecodeRows(f.Payload)
			if err != nil {
				return nil, nil, err
			}
			if chunk.NCols != len(schema) {
				return nil, nil, fmt.Errorf("client: rows chunk has %d columns, schema has %d", chunk.NCols, len(schema))
			}
			for r := 0; r < chunk.NRows(); r++ {
				row := make(engine.Row, chunk.NCols)
				for col := 0; col < chunk.NCols; col++ {
					i := r*chunk.NCols + col
					if chunk.Tags[i] == 1 {
						row[col] = engine.NullDatum
					} else {
						row[col] = engine.I(chunk.Vals[i])
					}
				}
				rows = append(rows, row)
			}
		case wire.TypeDone:
			return schema, rows, nil
		default:
			return nil, nil, fmt.Errorf("client: unexpected frame 0x%02x in result stream", f.Type)
		}
	}
}

// Int, Null and Table build the three bound-argument kinds of a prepared
// statement: an integer value, SQL NULL, and a table name standing in for
// a table-identifier placeholder.
func Int(v int64) wire.Arg       { return wire.IntArg(v) }
func Null() wire.Arg             { return wire.NullArg() }
func Table(name string) wire.Arg { return wire.TableArg(name) }

// Stmt is a prepared statement held open on the server: parsed once at
// Prepare, planned once at first execution (the server caches the plan),
// then executed with fresh bindings every call. Close releases the
// server-side handle; closing the Client releases all of them.
type Stmt struct {
	c         *Client
	id        uint32
	numParams int
	isQuery   bool
}

// Prepare parses a $N statement on the server and returns the handle.
// Placeholders can stand for integer values or — uniquely useful for the
// round-loop rename dance — table identifiers.
func (c *Client) Prepare(src string) (*Stmt, error) {
	if err := c.send(wire.Frame{Type: wire.TypePrepare, Payload: []byte(src)}); err != nil {
		return nil, err
	}
	f, err := c.recv()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TypePrepareOK {
		return nil, fmt.Errorf("client: Prepare answered with frame 0x%02x", f.Type)
	}
	ok, err := wire.DecodePrepareOK(f.Payload)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: ok.ID, numParams: int(ok.NumParams), isQuery: ok.IsQuery}, nil
}

// NumParams reports how many $N parameters the statement takes.
func (s *Stmt) NumParams() int { return s.numParams }

// IsQuery reports whether execution streams a result set (a single
// SELECT) rather than answering with a row count.
func (s *Stmt) IsQuery() bool { return s.isQuery }

// Exec executes the prepared statement with the given arguments,
// returning the last sub-statement's row count and the admission queue
// wait.
func (s *Stmt) Exec(args ...wire.Arg) (rows int64, queued time.Duration, err error) {
	req := wire.EncodeExecPrepared(wire.ExecPrepared{ID: s.id, Args: args})
	if err := s.c.send(wire.Frame{Type: wire.TypeExecPrepared, Payload: req}); err != nil {
		return 0, 0, err
	}
	f, err := s.c.recv()
	if err != nil {
		return 0, 0, err
	}
	if f.Type != wire.TypeDone {
		return 0, 0, fmt.Errorf("client: ExecPrepared answered with frame 0x%02x", f.Type)
	}
	d, err := wire.DecodeDone(f.Payload)
	if err != nil {
		return 0, 0, err
	}
	return d.Rows, time.Duration(d.QueueNanos), nil
}

// Query executes a prepared SELECT with the given arguments and returns
// the full result set.
func (s *Stmt) Query(args ...wire.Arg) (engine.Schema, []engine.Row, error) {
	req := wire.EncodeExecPrepared(wire.ExecPrepared{ID: s.id, Args: args})
	if err := s.c.send(wire.Frame{Type: wire.TypeExecPrepared, Payload: req}); err != nil {
		return nil, nil, err
	}
	return s.c.readResult()
}

// Close releases the server-side prepared statement.
func (s *Stmt) Close() error {
	req := wire.EncodeClosePrepared(wire.ClosePrepared{ID: s.id})
	if err := s.c.send(wire.Frame{Type: wire.TypeClosePrepared, Payload: req}); err != nil {
		return err
	}
	f, err := s.c.recv()
	if err != nil {
		return err
	}
	if f.Type != wire.TypeDone {
		return fmt.Errorf("client: ClosePrepared answered with frame 0x%02x", f.Type)
	}
	return nil
}

// ConnectedComponents runs the named algorithm ("" selects Randomised
// Contraction) over a table in the connection's tenant catalog: a Query of
// CONNECTED COMPONENTS OF, whose one row is the result.
func (c *Client) ConnectedComponents(table, algorithm string, seed uint64) (*CCResult, error) {
	src := "CONNECTED COMPONENTS OF " + table
	if algorithm != "" {
		src += " USING " + algorithm
	}
	// The statement reads its seed as a signed 64-bit value and converts
	// it back, so every uint64 seed travels as its two's-complement literal.
	_, rows, err := c.Query(fmt.Sprintf("%s SEED %d", src, int64(seed)))
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 || len(rows[0]) != 3 {
		return nil, fmt.Errorf("client: CONNECTED COMPONENTS answered %d rows", len(rows))
	}
	r := rows[0]
	return &CCResult{Components: r[0].Int, Rounds: r[1].Int, Vertices: r[2].Int}, nil
}

// Event is one component-index change delivered to a Watch subscription.
type Event struct {
	// Seq increases by exactly one per event on a subscription; the first
	// event's Seq is Watch.StartSeq()+1. A gap means frames were lost and
	// the subscription should be treated as broken.
	Seq uint64
	// Rebuild marks a full relabelling (a DELETE triggered a rebuild):
	// component labels may have changed wholesale and From/To are zero.
	// Otherwise the event is a merge of From's component into To's.
	Rebuild  bool
	From, To int64
}

// Watch is a live component-index subscription. Events arrive on C until
// the server drains, the connection drops, or the subscription overflows
// server-side; then C is closed and Err reports why. A watch is terminal
// for its connection — open a dedicated Client to subscribe.
type Watch struct {
	c        *Client
	startSeq uint64
	events   chan Event
	err      error // set before events is closed
}

// StartSeq is the index's sequence number at registration: the watch sees
// every event after it.
func (w *Watch) StartSeq() uint64 { return w.startSeq }

// Events is the subscription stream; closed when the watch ends. Callers
// must keep draining it until it closes (the pump goroutine blocks on an
// unread event, even across Close).
func (w *Watch) Events() <-chan Event { return w.events }

// Err reports why the event channel closed: a *wire.WireError with
// CodeUnavailable on server drain, nil only if Close ended the watch.
// Valid after Events is closed.
func (w *Watch) Err() error { return w.err }

// Close tears the watch down by closing the underlying connection (a
// subscription is terminal for its connection, so there is nothing less
// drastic to do). The event channel closes shortly after.
func (w *Watch) Close() error { return w.c.Close() }

// Subscribe opens a component-index watch on a table in the connection's
// tenant catalog. The table must already have a component index
// (CREATE COMPONENT INDEX ON t). The Client must not be used for other
// statements afterwards: the subscription owns the connection.
func (c *Client) Subscribe(table string) (*Watch, error) {
	req := wire.EncodeSubscribe(wire.Subscribe{Table: table})
	if err := c.send(wire.Frame{Type: wire.TypeSubscribe, Payload: req}); err != nil {
		return nil, err
	}
	f, err := c.recv()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TypeSubscribeOK {
		return nil, fmt.Errorf("client: Subscribe answered with frame 0x%02x", f.Type)
	}
	ok, err := wire.DecodeSubscribeOK(f.Payload)
	if err != nil {
		return nil, err
	}
	w := &Watch{c: c, startSeq: ok.Seq, events: make(chan Event)}
	go w.run()
	return w, nil
}

// run pumps Notify frames into the event channel until a terminal frame
// or connection error arrives.
func (w *Watch) run() {
	defer close(w.events)
	for {
		f, err := w.c.recv()
		if err != nil {
			w.err = err // server drain arrives here as *wire.WireError 503
			return
		}
		if f.Type != wire.TypeNotify {
			w.err = fmt.Errorf("client: unexpected frame 0x%02x on subscription", f.Type)
			return
		}
		n, err := wire.DecodeNotify(f.Payload)
		if err != nil {
			w.err = err
			return
		}
		w.events <- Event{Seq: n.Seq, Rebuild: n.Kind == wire.NotifyRebuild, From: n.From, To: n.To}
	}
}

// ServerStats fetches the server's observability snapshot: connection
// and statement totals, per-tenant admission accounting (queue depth,
// queue time, shed counts) and the drain flag.
func (c *Client) ServerStats() (*wire.ServerStats, error) {
	if err := c.send(wire.Frame{Type: wire.TypeStats}); err != nil {
		return nil, err
	}
	f, err := c.recv()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TypeStatsReply {
		return nil, fmt.Errorf("client: Stats answered with frame 0x%02x", f.Type)
	}
	var st wire.ServerStats
	if err := json.Unmarshal(f.Payload, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
