// Package server implements ccserverd's network layer: a multi-tenant
// statement server speaking the length-prefixed protocol of package wire
// on top of the embedded MPP cluster.
//
// Each accepted connection authenticates once (Hello: tenant + optional
// token) and becomes a statement loop. Tenants get private catalogs by
// layering the SQL layer's namespace mechanism: every connection of
// tenant T resolves and creates tables under the physical prefix
// "tn_T_", so two tenants' "edges" tables never collide while tables
// created by one of T's connections are visible to all of them.
//
// Admission control (see admission.go) sits between the socket and the
// engine: per-tenant concurrent-statement caps with a bounded wait
// queue, queue-time surfaced in both the per-statement reply and the
// stats message, and 429-style overload errors once queueing is
// exhausted. Graceful drain (Shutdown) stops accepting connections,
// rejects new statements with 503, lets in-flight statements finish,
// then closes the engine like any in-process caller.
package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbcc"
	"dbcc/internal/engine"
	"dbcc/internal/sql"
	"dbcc/internal/wire"
)

// tenantPrefix namespaces tenant catalogs; distinct from the session
// ("tmpN_") and per-run ("runN_") temp prefixes already in use.
const tenantPrefix = "tn_"

// handshakeTimeout bounds how long an accepted connection may dawdle
// before sending its Hello.
const handshakeTimeout = 30 * time.Second

// rowsPerChunk bounds one Rows frame of a streamed result set.
const rowsPerChunk = 512

// maxPreparedPerConn bounds how many prepared statements one connection
// may hold open; each pins a parsed AST (the plans live in the engine's
// bounded cache, not here).
const maxPreparedPerConn = 64

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7744"; ":0" picks a
	// free port (see Addr after Listen).
	Addr string
	// DB configures the embedded cluster the server fronts — segments,
	// worker-pool bound, per-statement memory budget, query timeout,
	// fault injection; exactly the knobs an in-process dbcc.Open takes.
	DB dbcc.Config
	// Admission bounds per-tenant statement concurrency and queueing.
	Admission AdmissionConfig
	// AuthToken, when non-empty, is the shared secret every Hello must
	// present. Empty disables authentication (trusted networks, tests).
	AuthToken string
}

// Server is a running ccserverd instance.
type Server struct {
	cfg Config
	db  *dbcc.DB
	adm *admission

	baseCtx context.Context // statement execution context; cancelled on forced shutdown
	cancel  context.CancelFunc
	drainCh chan struct{}

	ln net.Listener

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	inflightMu sync.Mutex // guards draining vs stmtWG.Add
	draining   bool
	stmtWG     sync.WaitGroup

	connsTotal    atomic.Int64
	statements    atomic.Int64
	failed        atomic.Int64
	prepares      atomic.Int64
	watchers      atomic.Int64 // live component-index subscriptions
	watchersTotal atomic.Int64
	notifies      atomic.Int64 // Notify frames written across all subscriptions
}

// New creates a server (and its embedded cluster); call Listen then
// Serve to start fielding connections.
func New(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		db:      dbcc.Open(cfg.DB),
		baseCtx: ctx,
		cancel:  cancel,
		drainCh: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	s.adm = newAdmission(cfg.Admission, s.drainCh)
	return s
}

// DB exposes the embedded database (tests preload shared tables and
// inspect the cluster through it).
func (s *Server) DB() *dbcc.DB { return s.db }

// Listen binds the configured address.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Shutdown closes the listener. It
// returns nil on a drain-initiated stop.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.drainCh:
				return nil
			default:
				return err
			}
		}
		s.connMu.Lock()
		select {
		case <-s.drainCh:
			// Accept raced Shutdown: the close loop over s.conns may
			// already have run, so registering now would leave a
			// connection nobody closes and hang connWG.Wait forever.
			s.connMu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connsTotal.Add(1)
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown drains the server gracefully: stop accepting connections,
// reject statements that arrive from now on with CodeUnavailable, wait
// for in-flight statements to finish, close the connections, and close
// the DB. When ctx expires before the
// in-flight statements finish, they are cancelled through the engine's
// context plumbing (prompt abort, no goroutine leaks) and ctx's error is
// returned; a clean drain returns nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inflightMu.Lock()
	if s.draining {
		s.inflightMu.Unlock()
		return errors.New("server: already draining")
	}
	s.draining = true
	close(s.drainCh)
	s.inflightMu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.stmtWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.cancel() // abort the stragglers between operators / segment tasks
		<-done
	}

	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	s.cancel()

	if err := s.db.Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// Stats snapshots the server's observability counters.
func (s *Server) Stats() wire.ServerStats {
	s.inflightMu.Lock()
	draining := s.draining
	s.inflightMu.Unlock()
	s.connMu.Lock()
	conns := int64(len(s.conns))
	s.connMu.Unlock()
	cst := s.db.Cluster().Stats()
	st := wire.ServerStats{
		Draining:               draining,
		Conns:                  conns,
		ConnsTotal:             s.connsTotal.Load(),
		Statements:             s.statements.Load(),
		Failed:                 s.failed.Load(),
		Prepared:               s.prepares.Load(),
		Parses:                 cst.Parses,
		PlanCacheHits:          cst.PlanCacheHits,
		PlanCacheMisses:        cst.PlanCacheMisses,
		PlanCacheInvalidations: cst.PlanCacheInvalidations,
		PlanCacheEntries:       int64(s.db.Cluster().PlanCacheLen()),
		Watchers:               s.watchers.Load(),
		WatchersTotal:          s.watchersTotal.Load(),
		Notifies:               s.notifies.Load(),
		IndexLabelsTouched:     cst.IndexLabelsTouched,
		IndexMerges:            cst.IndexMerges,
		IndexRebuilds:          cst.IndexRebuilds,
	}
	s.adm.snapshot(&st)
	return st
}

// beginStmt registers one in-flight statement unless drain has begun.
func (s *Server) beginStmt() bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.draining {
		return false
	}
	s.stmtWG.Add(1)
	return true
}

// validTenant accepts short alphanumeric tenant names. Underscores are
// rejected because the physical prefix is the textual concatenation
// tn_<tenant>_: if tenant "a_b" existed, tenant "a" naming "b_edges"
// would resolve to tn_a_b_edges — tenant "a_b"'s "edges" table — so one
// tenant's namespace must never be a prefix of another's. Restricting
// names to [A-Za-z0-9] makes '_' a reserved separator and every
// namespace prefix-free.
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > 32 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return true
}

// conn wraps one connection's buffered streams and its prepared
// statements. A connection carries one statement at a time (the loop in
// handleConn is sequential), so the prepared map needs no lock.
type connState struct {
	s        *Server
	bw       *bufio.Writer
	tenant   string
	sess     *sql.Session
	prepared map[uint32]*sql.Prepared
	prepID   uint32
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReader(conn)
	cs := &connState{s: s, bw: bufio.NewWriter(conn)}

	// Handshake: exactly one Hello, within the deadline.
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	f, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if f.Type != wire.TypeHello {
		cs.sendError(wire.CodeParse, "expected Hello frame")
		return
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		cs.sendError(wire.CodeParse, err.Error())
		return
	}
	if h.Version != wire.ProtocolVersion {
		cs.sendError(wire.CodeParse, fmt.Sprintf("protocol version %d unsupported (server speaks %d)", h.Version, wire.ProtocolVersion))
		return
	}
	if s.cfg.AuthToken != "" && subtle.ConstantTimeCompare([]byte(h.Token), []byte(s.cfg.AuthToken)) != 1 {
		cs.sendError(wire.CodeAuth, "bad token")
		return
	}
	if !validTenant(h.Tenant) {
		cs.sendError(wire.CodeAuth, fmt.Sprintf("invalid tenant name %q", h.Tenant))
		return
	}
	ns := tenantPrefix + h.Tenant + "_"
	cs.tenant = h.Tenant
	// RestrictPrefix stops this tenant from resolving other tenants'
	// physical names through the global-namespace fallback.
	cs.sess = sql.SessionWithNamespace(s.db.Cluster(), ns).RestrictPrefix(tenantPrefix)
	if !cs.send(wire.Frame{Type: wire.TypeHelloOK, Payload: wire.EncodeHelloOK(wire.HelloOK{Version: wire.ProtocolVersion, Namespace: ns})}) {
		return
	}

	// Statement loop: one request frame, one terminal reply frame.
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			return // client closed (or force-close during shutdown)
		}
		switch f.Type {
		case wire.TypeStats:
			data, err := json.Marshal(s.Stats())
			if err != nil {
				cs.sendError(wire.CodeInternal, err.Error())
				continue
			}
			if !cs.send(wire.Frame{Type: wire.TypeStatsReply, Payload: data}) {
				return
			}
		case wire.TypePrepare:
			cs.servePrepare(string(f.Payload))
		case wire.TypeClosePrepared:
			cs.serveClosePrepared(f.Payload)
		case wire.TypeExec, wire.TypeQuery, wire.TypeExecPrepared:
			cs.serveStatement(f)
		case wire.TypeSubscribe:
			// A subscription is terminal for the connection: serveSubscribe
			// owns the read side (to detect client close) and returns only
			// when the watch ends, after which the connection is done.
			cs.serveSubscribe(f.Payload, br)
			return
		default:
			cs.sendError(wire.CodeParse, fmt.Sprintf("unexpected frame type 0x%02x", f.Type))
		}
	}
}

// send writes and flushes one frame, reporting whether the connection is
// still usable.
func (cs *connState) send(f wire.Frame) bool {
	if err := wire.WriteFrame(cs.bw, f); err != nil {
		return false
	}
	return cs.bw.Flush() == nil
}

// sendError writes an Error frame and counts the failure.
func (cs *connState) sendError(code uint16, msg string) bool {
	cs.s.failed.Add(1)
	return cs.send(wire.Frame{Type: wire.TypeError, Payload: wire.EncodeError(wire.WireError{Code: code, Message: msg})})
}

// errorCode classifies a statement failure into a wire error code: text
// the SQL layer could not parse, or a Query of a statement that is not a
// single SELECT, is the client's error (400).
func errorCode(err error) uint16 {
	var oe *OverloadError
	var pe *sql.ParseError
	switch {
	case errors.As(err, &pe), errors.Is(err, sql.ErrNotQuery):
		return wire.CodeParse
	case errors.As(err, &oe):
		return wire.CodeOverloaded
	case errors.Is(err, ErrDraining):
		return wire.CodeUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return wire.CodeUnavailable
	default:
		return wire.CodeInternal
	}
}

// serveStatement runs one Exec/Query/ExecPrepared request under admission
// control.
func (cs *connState) serveStatement(f wire.Frame) {
	s := cs.s
	s.statements.Add(1)
	if !s.beginStmt() {
		cs.sendError(wire.CodeUnavailable, ErrDraining.Error())
		return
	}
	defer s.stmtWG.Done()

	queued, release, err := s.adm.acquire(s.baseCtx, cs.tenant)
	if err != nil {
		cs.sendError(errorCode(err), err.Error())
		return
	}
	defer release()

	switch f.Type {
	case wire.TypeExec:
		cs.serveExec(string(f.Payload), queued)
	case wire.TypeQuery:
		cs.serveQuery(string(f.Payload), queued)
	case wire.TypeExecPrepared:
		cs.serveExecPrepared(f.Payload, queued)
	}
}

// servePrepare parses and registers a $N statement. Prepare is parse-only
// (planning happens at first execute, against the live catalog), so it
// runs outside admission control like Stats.
func (cs *connState) servePrepare(src string) {
	if len(cs.prepared) >= maxPreparedPerConn {
		cs.sendError(wire.CodeInternal, fmt.Sprintf("connection holds %d prepared statements; close some", maxPreparedPerConn))
		return
	}
	p, err := cs.sess.Prepare(src)
	if err != nil {
		cs.sendError(wire.CodeParse, err.Error())
		return
	}
	if cs.prepared == nil {
		cs.prepared = make(map[uint32]*sql.Prepared)
	}
	cs.prepID++
	cs.prepared[cs.prepID] = p
	cs.s.prepares.Add(1)
	cs.send(wire.Frame{Type: wire.TypePrepareOK, Payload: wire.EncodePrepareOK(wire.PrepareOK{
		ID:        cs.prepID,
		NumParams: uint16(p.NumParams()),
		IsQuery:   p.IsQuery(),
	})})
}

// serveClosePrepared releases one prepared statement.
func (cs *connState) serveClosePrepared(payload []byte) {
	req, err := wire.DecodeClosePrepared(payload)
	if err != nil {
		cs.sendError(wire.CodeParse, err.Error())
		return
	}
	if _, ok := cs.prepared[req.ID]; !ok {
		cs.sendError(wire.CodeNotFound, fmt.Sprintf("unknown prepared statement %d", req.ID))
		return
	}
	delete(cs.prepared, req.ID)
	cs.send(wire.Frame{Type: wire.TypeDone, Payload: wire.EncodeDone(wire.Done{})})
}

// wireArgs converts wire arguments to SQL arguments.
func wireArgs(in []wire.Arg) []sql.Arg {
	out := make([]sql.Arg, len(in))
	for i, a := range in {
		switch a.Tag {
		case wire.ArgTagNull:
			out[i] = sql.Null()
		case wire.ArgTagTable:
			out[i] = sql.Table(a.Table)
		default:
			out[i] = sql.Int(a.Int)
		}
	}
	return out
}

// serveExecPrepared executes a previously prepared statement with bound
// arguments, streaming rows when the statement is a query.
func (cs *connState) serveExecPrepared(payload []byte, queued time.Duration) {
	req, err := wire.DecodeExecPrepared(payload)
	if err != nil {
		cs.sendError(wire.CodeParse, err.Error())
		return
	}
	p, ok := cs.prepared[req.ID]
	if !ok {
		cs.sendError(wire.CodeNotFound, fmt.Sprintf("unknown prepared statement %d", req.ID))
		return
	}
	b, err := cs.sess.Bind(p, wireArgs(req.Args)...)
	if err != nil {
		cs.sendError(wire.CodeParse, err.Error()) // bind mismatches are the client's bug
		return
	}
	sess := cs.sess.WithContext(cs.s.baseCtx)
	if p.IsQuery() {
		schema, rows, err := sess.QueryPrepared(b)
		if err != nil {
			cs.sendError(errorCode(err), err.Error())
			return
		}
		cs.streamRows(schema, rows, queued)
		return
	}
	n, err := sess.ExecutePrepared(b)
	if err != nil {
		cs.sendError(errorCode(err), err.Error())
		return
	}
	cs.send(wire.Frame{Type: wire.TypeDone, Payload: wire.EncodeDone(wire.Done{Rows: n, QueueNanos: queued.Nanoseconds()})})
}

func (cs *connState) serveExec(src string, queued time.Duration) {
	rows, err := cs.sess.WithContext(cs.s.baseCtx).Exec(src)
	if err != nil {
		cs.sendError(errorCode(err), err.Error())
		return
	}
	cs.send(wire.Frame{Type: wire.TypeDone, Payload: wire.EncodeDone(wire.Done{Rows: rows, QueueNanos: queued.Nanoseconds()})})
}

func (cs *connState) serveQuery(src string, queued time.Duration) {
	schema, rows, err := cs.sess.WithContext(cs.s.baseCtx).Query(src)
	if err != nil {
		cs.sendError(errorCode(err), err.Error())
		return
	}
	cs.streamRows(schema, rows, queued)
}

// streamRows sends a result set as Schema, Rows* and a terminal Done.
func (cs *connState) streamRows(schema engine.Schema, rows []engine.Row, queued time.Duration) {
	if len(schema) > wire.MaxCols {
		cs.sendError(wire.CodeInternal, fmt.Sprintf("result set has %d columns, wire max is %d", len(schema), wire.MaxCols))
		return
	}
	if !cs.send(wire.Frame{Type: wire.TypeSchema, Payload: wire.EncodeSchema(wire.Schema{Cols: schema})}) {
		return
	}
	ncols := len(schema)
	for off := 0; off < len(rows); off += rowsPerChunk {
		end := off + rowsPerChunk
		if end > len(rows) {
			end = len(rows)
		}
		chunk := wire.Rows{
			NCols: ncols,
			Tags:  make([]byte, 0, (end-off)*ncols),
			Vals:  make([]int64, 0, (end-off)*ncols),
		}
		for _, row := range rows[off:end] {
			for _, d := range row {
				if d.Null {
					chunk.Tags = append(chunk.Tags, 1)
					chunk.Vals = append(chunk.Vals, 0)
				} else {
					chunk.Tags = append(chunk.Tags, 0)
					chunk.Vals = append(chunk.Vals, d.Int)
				}
			}
		}
		if !cs.send(wire.Frame{Type: wire.TypeRows, Payload: wire.EncodeRows(chunk)}) {
			return
		}
	}
	cs.send(wire.Frame{Type: wire.TypeDone, Payload: wire.EncodeDone(wire.Done{Rows: int64(len(rows)), QueueNanos: queued.Nanoseconds()})})
}

// serveSubscribe registers a component-index watch and streams Notify
// frames until the client disconnects, the server drains, or the
// subscription overflows. Registration counts as a statement for
// admission control — a tenant cannot open more watches than its
// concurrency budget admits at once — but the slot is released as soon
// as the watch is registered, so long-lived subscriptions do not starve
// the tenant's statement lanes. The in-flight registration (stmtWG) is
// held for the subscription's whole lifetime instead: that is what
// guarantees drain writes the terminal Error frame before Shutdown
// closes the connection.
func (cs *connState) serveSubscribe(payload []byte, br *bufio.Reader) {
	s := cs.s
	s.statements.Add(1)
	if !s.beginStmt() {
		cs.sendError(wire.CodeUnavailable, ErrDraining.Error())
		return
	}
	defer s.stmtWG.Done()

	_, release, err := s.adm.acquire(s.baseCtx, cs.tenant)
	if err != nil {
		cs.sendError(errorCode(err), err.Error())
		return
	}

	req, err := wire.DecodeSubscribe(payload)
	if err != nil {
		release()
		cs.sendError(wire.CodeParse, err.Error())
		return
	}
	phys := cs.sess.Resolve(req.Table)
	idx, ok := s.db.Cluster().ComponentIndex(phys)
	if !ok {
		release()
		cs.sendError(wire.CodeNotFound, fmt.Sprintf("table %q has no component index", req.Table))
		return
	}
	sub := idx.Subscribe()
	defer sub.Close()
	release() // registered: give the admission slot back
	s.watchers.Add(1)
	s.watchersTotal.Add(1)
	defer s.watchers.Add(-1)

	if !cs.send(wire.Frame{Type: wire.TypeSubscribeOK, Payload: wire.EncodeSubscribeOK(wire.SubscribeOK{Seq: sub.StartSeq})}) {
		return
	}

	// The client writes nothing after Subscribe; a read completing (frame
	// or error) means it hung up. The goroutine unblocks when handleConn's
	// deferred conn.Close runs after we return.
	clientGone := make(chan struct{})
	go func() {
		wire.ReadFrame(br)
		close(clientGone)
	}()

	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				// Disconnected by the index: the subscriber fell too far
				// behind (buffer overflow) or the index was dropped.
				cs.sendError(wire.CodeUnavailable, "subscription dropped (slow consumer or index dropped)")
				return
			}
			if !cs.send(wire.Frame{Type: wire.TypeNotify, Payload: wire.EncodeNotify(wire.Notify{
				Seq:  ev.Seq,
				Kind: ev.Kind,
				From: ev.From,
				To:   ev.To,
			})}) {
				return
			}
			s.notifies.Add(1)
		case <-s.drainCh:
			cs.sendError(wire.CodeUnavailable, ErrDraining.Error())
			return
		case <-clientGone:
			return
		}
	}
}
