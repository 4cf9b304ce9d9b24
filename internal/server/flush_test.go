package server

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dbcc/internal/client"
)

// countingListener hands out connections that count their Write calls.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestQueryReplyIsOneWrite pins that a small result set's Schema, Rows and
// Done frames reach the socket in one write, not one per frame.
func TestQueryReplyIsOneWrite(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	s.ln = countingListener{s.ln, &writes}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	c, err := client.Dial(s.Addr(), "t", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, stmt := range []string{"CREATE TABLE e (v1, v2)", "INSERT INTO e VALUES (1, 2), (2, 3)"} {
		if _, _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	before := writes.Load()
	_, rows, err := c.Query("SELECT count(*) FROM e")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int != 2 {
		t.Fatalf("count(*) returned %v, want one row of 2", rows)
	}
	if got := writes.Load() - before; got != 1 {
		t.Fatalf("a one-row reply took %d writes, want 1", got)
	}
}
