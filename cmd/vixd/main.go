// Command vixd serves the simulator over HTTP: a hive-style
// suite/case/result API backed by a content-addressed result store, so
// identical experiment specs — from any client, across restarts — are
// answered without simulating.
//
//	vixd -addr :8080 -store results.jsonl
//
//	# One-shot grid: create a closed suite and stream its results.
//	curl -s -X POST localhost:8080/suites -d '{
//	  "cases": [{"spec": {"allocator": "if", "virtual_inputs": 2, "injection_rate": 0.05}}],
//	  "close": true}'
//	curl -sN localhost:8080/suites/s1/results
//
// SIGTERM/SIGINT drain gracefully: in-flight and queued cases run to
// completion, open result streams finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vix/internal/service"
)

// readHeaderTimeout bounds how long an accepted connection may take to
// send its request line and headers. There is deliberately no write
// timeout: a result stream stays open for as long as its suite runs.
const readHeaderTimeout = 10 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("vixd: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		storePath  = flag.String("store", "", "JSONL result-store file shared across restarts (default: in-memory)")
		runners    = flag.Int("runners", 0, "concurrently executing cases (default GOMAXPROCS)")
		workers    = flag.Int("workers", 1, "parallel-tick workers per simulation (1 serial, <0 GOMAXPROCS); results are byte-identical for any value")
		quotaRate  = flag.Float64("quota-rate", 0, "per-client admission rate in cases/second (0 = no quotas)")
		quotaBurst = flag.Float64("quota-burst", 0, "per-client admission burst (default: quota-rate)")
		verbose    = flag.Bool("v", false, "log per-case execution and cache provenance")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "vixd: ", 0)
	if !*verbose {
		logger = nil
	}
	svc, err := service.New(service.Config{
		StorePath:  *storePath,
		Runners:    *runners,
		Workers:    *workers,
		QuotaRate:  *quotaRate,
		QuotaBurst: *quotaBurst,
		// The service itself never reads the wall clock (vixlint's
		// determinism pass covers internal/); the quota clock is injected
		// here, at the edge.
		Now: func() int64 { return time.Now().UnixNano() },
		Log: logger,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (store %q)", *addr, *storePath)

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain. Service close and HTTP shutdown must overlap: Shutdown
	// waits for open result streams, and a stream over a never-closed
	// suite only terminates once the service marks itself draining and
	// runs the case queue dry.
	log.Printf("signal received; draining")
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-closed; err != nil {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}
