// pta-server runs the points-to analysis as a long-lived HTTP/JSON service.
//
// Endpoints:
//
//	POST /v1/analyze   analyze C source, return points-to triples + metrics
//	POST /v1/check     memory-safety findings over the same run
//	POST /v1/race      data-race findings
//	POST /v1/taint     taint findings
//	GET  /metrics      Prometheus text: aggregated analysis counters plus
//	                   http_requests_total / http_request_duration_seconds /
//	                   inflight_requests
//	GET  /healthz      process liveness
//	GET  /readyz       ready only after the warmup self-analysis passes
//	GET  /debug/pprof  net/http/pprof
//
// Every request is stamped with an X-Request-ID (propagated or generated);
// the same ID appears in the JSON response, the structured access log, the
// per-request trace, and — when a run panics, blows its step budget, or
// stalls — names the flight-record dump spooled under -spool.
//
// Flags:
//
//	-addr A               listen address (default localhost:8321)
//	-pool N               max concurrent analyses (0 = GOMAXPROCS)
//	-workers N            per-analysis worker cap (0 = GOMAXPROCS)
//	-spool DIR            flight-record spool directory
//	-max-source-bytes N   request body limit (0 = 8 MiB)
//	-max-steps N          per-request step-budget ceiling (0 = engine default;
//	                      negative is a usage error)
//	-log-json             access log as JSON lines (default true)
//	-log-level L          debug|info|warn|error (default info)
//	-drain-timeout D      graceful-shutdown drain budget (default 30s)
//
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the daemon body, separated from main so tests can drive the full
// lifecycle: sigs is the shutdown trigger (nil installs the real
// SIGINT/SIGTERM handler).
func run(argv []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("pta-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:8321", "listen address")
		poolSize = fs.Int("pool", 0, "max concurrent analyses (0 = GOMAXPROCS)")
		workers  = fs.Int("workers", 0, "per-analysis worker cap (0 = GOMAXPROCS)")
		spoolDir = fs.String("spool", "", "flight-record spool dir (default <tmp>/pta-server-spool)")
		maxBytes = fs.Int64("max-source-bytes", 0, "request body limit in bytes (0 = 8 MiB)")
		maxSteps = fs.Int("max-steps", 0, "per-request step-budget ceiling (0 = engine default)")
		logJSON  = fs.Bool("log-json", true, "write the access log as JSON lines")
		logLevel = fs.String("log-level", "info", "log level: debug|info|warn|error")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *maxSteps < 0 {
		fmt.Fprintln(stderr, "pta-server: -max-steps must not be negative")
		return 2
	}
	log, err := obsv.NewLogger(stderr, obsv.LogOptions{JSON: *logJSON, Level: *logLevel})
	if err != nil {
		fmt.Fprintln(stderr, "pta-server:", err)
		return 2
	}
	if *spoolDir == "" {
		*spoolDir = filepath.Join(os.TempDir(), "pta-server-spool")
	}

	srv, err := server.New(server.Config{
		PoolSize:        *poolSize,
		AnalysisWorkers: *workers,
		SpoolDir:        *spoolDir,
		MaxSourceBytes:  *maxBytes,
		MaxSteps:        *maxSteps,
		Logger:          log,
	})
	if err != nil {
		log.Error("startup", "err", err)
		return 1
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Error("listen", "addr", *addr, "err", err)
		return 1
	}
	// The bound address on stdout is the script interface (with -addr :0 the
	// port is kernel-assigned); everything else goes to the structured log.
	fmt.Fprintf(stdout, "pta-server listening on %s\n", bound)
	log.Info("listening", "addr", bound.String(), "spool", *spoolDir)

	if sigs == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sigs = ch
	}
	sig := <-sigs
	log.Info("shutdown", "signal", fmt.Sprint(sig))
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Error("drain", "err", err)
		return 1
	}
	log.Info("stopped")
	return 0
}
