// Command kgeserve is the embedding inference server: it loads a KGE2
// checkpoint written by kgetrain into an immutable sharded store and
// serves triple scoring, top-K link prediction and entity similarity over
// HTTP JSON, with micro-batched predict sweeps, a sharded LRU result
// cache, and atomic hot checkpoint reload.
//
// Example:
//
//	kgetrain -dataset fb15k-mini -save model.kge
//	kgeserve -model model.kge -dataset fb15k-mini -addr :8080 &
//	curl -s localhost:8080/v1/predict -d '{"head":0,"relation":0,"k":5,"filtered":true}'
//	curl -s localhost:8080/v1/neighbors -d '{"entity":0,"k":5}'
//	curl -s -X POST localhost:8080/v1/reload    # pick up a retrained model.kge
//	curl -s localhost:8080/metrics
//
// Endpoints: POST /v1/score, /v1/predict, /v1/neighbors, /v1/reload;
// GET /healthz, /metrics. Shutdown on SIGINT/SIGTERM drains in-flight
// requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/serve"
)

// Server timeouts, so a slow or stalled client cannot hold a connection and
// its goroutine forever. WriteTimeout bounds a whole handler, so it sits far
// above the slowest full predict sweep.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	var (
		ckpt      = flag.String("model", "", "KGE2 checkpoint written by kgetrain -save (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		dataDir   = flag.String("data", "", "OpenKE-layout dataset directory for filtered ranking")
		preset    = flag.String("dataset", "", "synthetic preset instead of -data: fb15k-mini, fb250k-mini, fb15k-full, fb250k-full")
		seed      = flag.Uint64("seed", 1, "random seed for -dataset generation")
		shardRows = flag.Int("shard-rows", 0, "entity rows per store shard (0 = default)")
		cacheSize = flag.Int("cache", 4096, "result cache entries (0 disables caching)")
		maxBatch  = flag.Int("batch-max", 64, "max predict queries coalesced into one sweep")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()
	if *ckpt == "" {
		fmt.Fprintln(os.Stderr, "kgeserve: -model is required")
		os.Exit(1)
	}

	// Fail fast on a bad or mismatched checkpoint: the header (plus full
	// CRC sweep) costs one file pass, no allocation.
	info, err := model.ReadCheckpointInfo(*ckpt)
	if err != nil {
		log.Fatalf("kgeserve: %v", err)
	}
	log.Printf("checkpoint %s: %s", *ckpt, info)

	// A dataset is optional; with one, /v1/predict can rank filtered (known
	// facts skipped) and ids must line up with the checkpoint.
	var filter *kg.FilterIndex
	if *dataDir != "" || *preset != "" {
		d, err := kg.Load(*preset, *dataDir, "", *seed)
		if err != nil {
			log.Fatalf("kgeserve: loading dataset: %v", err)
		}
		if d.NumEntities != info.Entities || d.NumRelations != info.Relations {
			log.Fatalf("kgeserve: checkpoint shape (%d entities, %d relations) does not match dataset (%d, %d)",
				info.Entities, info.Relations, d.NumEntities, d.NumRelations)
		}
		filter = kg.NewFilterIndex(d)
		log.Printf("filtered ranking enabled over %d known triples", filter.Len())
	}

	srv, err := serve.New(serve.Config{
		CheckpointPath: *ckpt,
		ShardRows:      *shardRows,
		CacheSize:      *cacheSize,
		MaxBatch:       *maxBatch,
		Filter:         filter,
	})
	if err != nil {
		log.Fatalf("kgeserve: %v", err)
	}
	st := srv.Store()
	log.Printf("store ready: %d entities x %d floats in %d shards, %d relations",
		st.NumEntities(), st.Model().Width(), st.NumShards(), st.NumRelations())

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	if *pprofAddr != "" {
		// Debug-only listener on its own mux so the profiling endpoints are
		// never reachable through the public serving address.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("kgeserve: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		srv.Close()
		log.Fatalf("kgeserve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish, then
	// stop the batcher (order matters — handlers block on batched sweeps).
	log.Printf("shutting down: draining for up to %s", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("kgeserve: drain incomplete: %v", err)
	}
	srv.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("kgeserve: %v", err)
	}
	log.Printf("bye")
}
