// Command ppserved serves the repository's simulation engines over
// HTTP/JSON: submit simulate/sweep/explore jobs against built-in targets or
// inline population-program source, poll their status, stream progress and
// telemetry, and fetch results. Program submissions share a
// content-addressed cache of §7 compile→convert results — persisted under
// -state-dir, so a restarted server boots warm and serves byte-identical
// results without reconverting; sweep jobs with a checkpoint name survive
// restarts and resume bit-identically. Explore jobs accept a "mem_budget"
// byte cap in their spec: beyond it the explorer spills interned keys to
// <state-dir>/spill (cleaned up per job) and reads them back,
// bit-identically, so exhaustive verification jobs can exceed RAM.
//
// Usage:
//
//	ppserved -addr :8080 -state-dir /var/lib/ppserved
//
// then, for example:
//
//	curl -s localhost:8080/api/v1/jobs -d '{"kind":"simulate","target":"majority","input":[60,40],"runs":5}'
//	curl -s localhost:8080/api/v1/jobs/j000001
//	curl -s localhost:8080/api/v1/jobs/j000001/result
//
// See DESIGN.md for the API and the server architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs/obsflag"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole daemon behind a testable seam. ready, when non-nil,
// receives the bound listen address once the server is accepting — tests
// use it to connect without racing startup. Exit codes: 0 clean shutdown,
// 1 runtime failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("ppserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address")
	stateDir := fs.String("state-dir", "", "directory for job persistence and sweep checkpoints (empty = in-memory only)")
	queueDepth := fs.Int("queue", 0, "job queue depth (0 = default 64); a full queue rejects submissions with 429")
	workers := fs.Int("workers", 0, "concurrent job runners (0 = default 2)")
	cacheSize := fs.Int("cache", 0, "compiled-protocol cache entries (0 = default 32)")
	telemetry := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usageErr := func(err error) int {
		fmt.Fprintln(stderr, "ppserved:", err)
		fs.Usage()
		return 2
	}
	switch {
	case *queueDepth < 0:
		return usageErr(fmt.Errorf("-queue must be ≥ 0, got %d", *queueDepth))
	case *workers < 0:
		return usageErr(fmt.Errorf("-workers must be ≥ 0, got %d", *workers))
	case *cacheSize < 0:
		return usageErr(fmt.Errorf("-cache must be ≥ 0, got %d", *cacheSize))
	}
	stopTelemetry, err := telemetry.Start(stderr)
	if err != nil {
		return usageErr(err)
	}
	defer stopTelemetry()

	srv, err := serve.New(serve.Config{
		QueueDepth: *queueDepth,
		Workers:    *workers,
		CacheSize:  *cacheSize,
		StateDir:   *stateDir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ppserved:", err)
		return 1
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ppserved:", err)
		return 1
	}
	// Catch the signals before announcing the address, so a signal sent
	// by a client of ready always takes the shutdown path below.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "ppserved: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case <-sigCtx.Done():
		fmt.Fprintln(stdout, "ppserved: shutting down")
		// Shutdown waits for every open job stream, and a stream ends only
		// with its job or with the job server, so close the job server
		// beside it. The deferred srv.Close returns once that close has
		// finished.
		go srv.Close()
		httpSrv.Shutdown(context.Background())
		<-errCh
		return 0
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return 0
		}
		fmt.Fprintln(stderr, "ppserved:", err)
		return 1
	}
}
