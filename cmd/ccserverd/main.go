// Command ccserverd serves the embedded MPP cluster over TCP — the
// paper's in-database analysis as a long-lived, multi-tenant network
// service instead of an in-process library.
//
// Usage:
//
//	ccserverd -addr 127.0.0.1:7744
//
// Engine flags set the library's dbcc.Config: the cluster flags every
// command shares (-segments, -mem-budget, -timeout and the chaos knobs
// -fault-rate/-fault-seed) plus -workers.
// Admission flags bound per-tenant load: -tenant-statements concurrent
// statements per tenant, -tenant-queue waiting statements beyond the
// cap, -queue-timeout the longest a queued statement waits before the
// server sheds it with a 429-style overload error. -auth-token requires
// clients to present a shared secret.
//
// SIGTERM or SIGINT triggers a graceful drain: the listener closes, new
// statements are rejected with 503, in-flight statements finish (bounded
// by -drain-timeout, after which they are cancelled through the engine's
// context plumbing). A clean drain exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dbcc"
	"dbcc/internal/server"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:7744", "TCP listen address (\":0\" picks a free port)")

		tenantStmts  = flag.Int("tenant-statements", 4, "concurrent statements per tenant")
		tenantQueue  = flag.Int("tenant-queue", 16, "queued statements per tenant beyond the cap (-1 disables queueing)")
		queueTimeout = flag.Duration("queue-timeout", 5*time.Second, "longest a queued statement waits before it is shed")
		authToken    = flag.String("auth-token", "", "shared secret clients must present (empty disables auth)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "longest a graceful drain waits for in-flight statements")
	)
	var cluster dbcc.Config
	cluster.RegisterFlags(flag.CommandLine)
	flag.IntVar(&cluster.Workers, "workers", 0, "worker-pool bound across all sessions (0 = GOMAXPROCS)")
	flag.Parse()

	srv := server.New(server.Config{
		Addr: *addr,
		DB:   cluster,
		Admission: server.AdmissionConfig{
			TenantStatements: *tenantStmts,
			TenantQueue:      *tenantQueue,
			QueueTimeout:     *queueTimeout,
		},
		AuthToken: *authToken,
	})
	if err := srv.Listen(); err != nil {
		fmt.Fprintf(os.Stderr, "ccserverd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ccserverd: listening on %s (%d segments, %d statements/tenant, queue %d, queue timeout %s)\n",
		srv.Addr(), srv.DB().Cluster().Segments(), *tenantStmts, *tenantQueue, *queueTimeout)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	drainDone := make(chan error, 1)
	go func() {
		sig := <-sigCh
		fmt.Printf("ccserverd: %s received, draining (timeout %s)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drainDone <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "ccserverd: serve: %v\n", err)
		os.Exit(1)
	}
	if err := <-drainDone; err != nil {
		fmt.Fprintf(os.Stderr, "ccserverd: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ccserverd: drain complete")
}
