// Command fast-serve is the FAST study daemon: an HTTP/JSON service
// that runs accelerator-search studies for many tenants concurrently on
// one simulator process, checkpoints every study durably, and resumes
// interrupted studies bit-identically after a restart.
//
// API (see docs/API.md for schemas and curl examples):
//
//	POST /v1/studies                submit a study (runs when a tenant
//	                                concurrency slot frees up)
//	GET  /v1/studies?tenant=t       list a tenant's studies
//	GET  /v1/studies/{id}           status summary
//	GET  /v1/studies/{id}/result    final report (409 until done)
//	GET  /v1/studies/{id}/events    live progress via SSE
//	POST /v1/studies/{id}/cancel    stop a running study
//	POST /v1/studies/{id}/resume    continue from the durable checkpoint
//	GET  /debug/vars                metrics (flat JSON)
//	GET  /healthz                   liveness
//
// State lives under -data as one directory per study (spec, fsync'd
// transcript, status); kill the process at any point and restart it on
// the same directory — running studies come back as "interrupted" and
// resume exactly where the last durable batch left off.
//
// Admission is bounded per tenant: -max-studies stored, -max-queued
// waiting and -max-active running studies; a submission past a bound
// is shed 429 with Retry-After: 5. -max-trials caps every study's trial
// target and so its transcript (~200 bytes a trial). The shared plan
// cache holds at most 512 compiled plans (docs/OPERATIONS.md, "Plan
// cache sizing").
//
// Trial evaluation can be sharded across fast-worker processes:
// -workers N spawns N local subprocess workers, -connect host:port,...
// reaches workers started with `fast-worker -listen`. Every study's
// transcript stays bit-identical to in-process evaluation; a lost pool
// degrades to in-process and dispatch health is visible at /debug/vars
// (fast_dispatch_* metrics).
//
// Usage:
//
//	fast-serve -addr :8080 -data /var/lib/fast
//	fast-serve -data ./studies -parallel 8
//	fast-serve -data ./studies -workers 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fast/internal/dispatch"
	"fast/internal/obsv"
	"fast/internal/serve"
	"fast/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		data       = flag.String("data", "fast-studies", "study checkpoint directory")
		parallel   = flag.Int("parallel", 0, "concurrent evaluations per running study (0 = one per CPU)")
		maxStudies = flag.Int("max-studies", 64, "stored studies allowed per tenant")
		maxActive  = flag.Int("max-active", 2, "concurrently running studies per tenant")
		maxTrials  = flag.Int("max-trials", 2000, "trial budget allowed per study")
		maxQueued  = flag.Int("max-queued", 8, "studies allowed to wait per tenant before submissions shed 429")
		workers    = flag.Int("workers", 0, "spawn N fast-worker subprocesses for trial evaluation (0 = in-process)")
		connect    = flag.String("connect", "", "comma-separated fast-worker TCP addresses (host:port,...)")
		workerBin  = flag.String("worker-bin", "", "fast-worker binary for -workers (default: next to this binary, then PATH)")
	)
	flag.Parse()
	log.SetFlags(0)

	st, err := store.Open(*data)
	if err != nil {
		fatal(err)
	}

	// Remote evaluation pool, shared by every study; its fast_dispatch_*
	// metrics surface on the same /debug/vars registry as the daemon's.
	reg := obsv.NewRegistry()
	cfg := serve.Config{
		Store:               st,
		Metrics:             reg,
		MaxStudiesPerTenant: *maxStudies,
		MaxActivePerTenant:  *maxActive,
		MaxTrialsPerStudy:   *maxTrials,
		MaxQueuedPerTenant:  *maxQueued,
		Parallelism:         *parallel,
		Logf:                log.Printf,
	}
	var pool *dispatch.Pool
	if *workers > 0 || *connect != "" {
		popts := dispatch.Options{Workers: *workers, Logf: log.Printf}
		if *connect != "" {
			popts.Connect = strings.Split(*connect, ",")
		} else {
			bin, err := dispatch.ResolveWorkerBin(*workerBin)
			if err != nil {
				fatal(err)
			}
			popts.WorkerCmd = []string{bin}
		}
		pool, err = dispatch.New(popts)
		if err != nil {
			fatal(err)
		}
		defer pool.Close()
		pool.RegisterMetrics(reg)
		cfg.Dispatch = pool.Dispatch()
		if cfg.Parallelism == 0 {
			cfg.Parallelism = pool.Size()
		}
		log.Printf("level=info msg=\"dispatch pool up\" workers=%d connect=%q", pool.Size(), *connect)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("level=info msg=listening addr=%s data=%s", *addr, *data)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sig:
		log.Printf("level=info msg=shutdown signal=%s", s)
	}

	// Graceful stop, drain first: srv.Close cancels running studies and
	// returns only when every in-flight study is durably checkpointed
	// and marked interrupted (resumable), and every SSE stream has been
	// sent its terminal "shutdown" frame. Only then does the HTTP server
	// shut down — with no streams left open it returns promptly, and no
	// client can observe a dead socket before learning the server went
	// away on purpose.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("level=warn msg=\"http shutdown\" err=%q", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fast-serve:", err)
	os.Exit(1)
}
