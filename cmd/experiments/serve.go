package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dnstime"
)

// serveConfig holds the parsed serve-subcommand flags.
type serveConfig struct {
	addr    string
	workers int
	queue   int
	state   string
	rate    float64
	burst   int
	pprof   bool
	cache   int
	grace   time.Duration
}

// serveFlagSet declares the serve flag surface on a fresh FlagSet. The
// README command checker parses documented commands against the same set.
func serveFlagSet(cfg *serveConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&cfg.workers, "workers", 0, "engine workers shared by all campaigns (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.queue, "queue", 0, "job queue capacity; full queue answers 503 (0 = 32)")
	fs.StringVar(&cfg.state, "state", "", "checkpoint directory for drain/resume (empty = no durable state)")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-client submissions per second (0 = unlimited)")
	fs.IntVar(&cfg.burst, "burst", 0, "per-client submission burst (with -rate; 0 = 1)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.IntVar(&cfg.cache, "cache", 0, "completed-aggregate cache capacity (0 = 256)")
	fs.DurationVar(&cfg.grace, "grace", 30*time.Second, "drain budget after SIGINT/SIGTERM")
	return fs
}

// Connection timeouts of the serve HTTP listener: a client that trickles
// its request headers, or parks an idle keep-alive connection, is cut off
// instead of holding a connection and a goroutine for ever. There is
// deliberately no write timeout — GET /jobs/{id}/stream lasts as long as
// its campaign, and a write deadline would cut it mid-stream.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in the listener's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runServe is the serve subcommand: boot the resident experiment service
// (DESIGN.md §11) and serve its HTTP API on -addr until ctx is cancelled
// (the CLI wires SIGINT/SIGTERM to it). The shutdown path drains first —
// new submissions get 503, the running campaign's engine is cancelled so
// its checkpoint in -state holds every completed seed for resumption —
// then closes HTTP connections within the -grace budget.
func runServe(ctx context.Context, argv []string, w io.Writer) error {
	var cfg serveConfig
	fs := serveFlagSet(&cfg)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	srv, err := dnstime.NewExperimentServer(dnstime.ExperimentServerConfig{
		Workers:  cfg.workers,
		QueueCap: cfg.queue,
		StateDir: cfg.state,
		Rate:     cfg.rate,
		Burst:    cfg.burst,
		Pprof:    cfg.pprof,
		CacheCap: cfg.cache,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The resolved address is printed before serving so scripts (and the
	// smoke test) can submit as soon as the line appears, even with port 0.
	fmt.Fprintf(w, "experiments serve: listening on http://%s\n", ln.Addr())

	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	// Drain the service before the listener: cancelled campaigns publish
	// their partial aggregates, so every open stream receives its terminal
	// line and HTTP shutdown finds only idle connections.
	if err := srv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(w, "experiments serve: drained")
	return nil
}
