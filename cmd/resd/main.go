// Command resd is the crash-ingestion daemon: a fleet ships coredumps to
// it over HTTP, it dedups them against a content-addressed result store,
// analyzes fresh ones on per-program shards of reusable analysis
// sessions, and groups the results into crash buckets by root-cause
// signature.
//
// Usage:
//
//	resd [-addr :8467] [-depth 24] [-nodes 0] [-lbr] [-outputs]
//	     [-workers 2] [-queue 64] [-job-timeout 1m] [-search-parallel 0]
//	     [-cache-entries 4096] [-cache-dir /var/lib/resd]
//	     [-jobs-cap 65536] [-jobs-ttl 0] [-retries 2] [-journal path]
//	     [-peers url,url,...] [-advertise url] [-replicas 2]
//	     [-repair-interval 0] [-max-body-mb 256] [-spool-dir dir]
//	     [-fault-spec seam:kind:prob,...] [-fault-seed 1]
//	     [-pprof] [-slow-analysis 5s] [-drain-timeout 30s]
//	     [-log-format text|json] [-flightrec-events 256]
//
// API (JSON):
//
//	POST /v1/programs       {"name","source"} -> {"program_id"}
//	POST /v1/dumps          {"program_id"|"program_source","dump":base64,
//	                         "options":{"max_depth","beam_width"}}
//	                        -> job (202 queued, 200 done/cached,
//	                           429 queue full, 503 draining)
//	POST /v1/dumps/batch    {"program_id"|"program_source","dumps":[...]}
//	                        -> {"jobs":[...]} (positional, per-item errors)
//	POST /v1/fixes          {"program_id"|"program_source","patch":base64,
//	                         "dump":base64} -> verdict job; the report is
//	                        a fixed/not-fixed/inconclusive fix-verification
//	                        verdict, cached by the (program, dump, options,
//	                        patch) tuple
//	POST /v1/jobs/{id}/minimize  delta-debug a finished analysis job's
//	                        tuple into a minimal repro preserving the
//	                        root-cause key (needs -cache-dir so the
//	                        ingest archive still holds the dump);
//	                        -> minimize job whose report carries the
//	                        canonical RESMINR1 repro bytes
//	GET  /v1/results/{id}   job status + deterministic report
//	GET  /v1/jobs/{id}/trace  the job's distributed trace, stitched
//	                          across every node it touched (?format=chrome
//	                          for chrome://tracing / Perfetto trace-event
//	                          JSON, ?format=text for an indented summary)
//	GET  /v1/buckets        crash-dedup buckets
//	GET  /healthz           liveness
//	GET  /metrics           Prometheus text metrics (counters + latency
//	                        histograms + runtime gauges)
//	GET  /internal/v1/flightrec  the always-on flight recorder: a bounded
//	                        ring of recent spans, warnings, faults,
//	                        peers marked down, and repair events,
//	                        auto-dumped on panic and on -slow-analysis hits
//
// With -peers, N daemons form one logical service: every node routes
// each program's dumps to its rendezvous owner (failing over when the
// owner is down), replicates completed results to -replicas nodes, and
// merges the cluster-wide bucket view. A peer is down after two
// consecutive failures, seen by a /healthz probe or by any request to
// it, and is routed to again after its next successful probe. -journal makes job history and
// bucket membership durable across restarts. Cluster-mode endpoints:
//
//	GET  /v1/cluster                membership + per-peer health
//	GET  /v1/cluster/route/{prog}   a program's owner + failover order
//	GET  /v1/cluster/metrics        federated metrics: counters summed and
//	                                histograms merged across live nodes,
//	                                gauges tagged per-node
//
// On SIGINT/SIGTERM the daemon drains: in-flight analyses finish (bounded
// by -drain-timeout, after which they are cut and report partial
// results), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"res/internal/cli"
	"res/internal/cluster"
	"res/internal/fault"
	"res/internal/obs"
	"res/internal/service"
	"res/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8467", "listen address")
		depth        = flag.Int("depth", 24, "maximum suffix length in blocks")
		nodes        = flag.Int("nodes", 0, "backward-step attempt budget (0 = default)")
		beam         = flag.Int("beam", 0, "frontier beam width (0 = unlimited)")
		useLBR       = flag.Bool("lbr", false, "prune searches with each dump's branch ring")
		lbrSkip      = flag.Bool("lbr-skip-cond", false, "interpret rings as filtered-LBR hardware")
		outputs      = flag.Bool("outputs", false, "prune with error-log breadcrumbs")
		workers      = flag.Int("workers", 2, "concurrent analyses per program shard")
		queue        = flag.Int("queue", service.DefaultQueueDepth, "pending dumps per shard before 429s")
		jobTimeout   = flag.Duration("job-timeout", time.Minute, "per-analysis deadline (0 = none)")
		cacheEntries = flag.Int("cache-entries", 0, "result-store memory entries (0 = default)")
		cacheDir     = flag.String("cache-dir", "", "result-store disk tier (empty = memory only)")
		drain        = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain bound")
		searchP      = flag.Int("search-parallel", 0, "candidate-level parallelism within each analysis (0 = auto: cores divided by -workers; 1 = sequential)")
		jobsCap      = flag.Int("jobs-cap", 65536, "terminal job records kept in memory before oldest-first eviction (0 = unbounded)")
		jobsTTL      = flag.Duration("jobs-ttl", 0, "evict terminal job records older than this (0 = no TTL)")
		retries      = flag.Int("retries", 2, "re-queue a failed analysis up to this many times with exponential backoff (0 = failures are final)")
		retryBackoff = flag.Duration("retry-backoff", service.DefaultRetryBackoff, "first retry delay; doubles per retry")
		journalPath  = flag.String("journal", "", "append-only job journal: job history and bucket membership survive restarts (empty = off)")
		peersFlag    = flag.String("peers", "", "comma-separated base URLs of EVERY cluster node, this one included (empty = single-node)")
		advertise    = flag.String("advertise", "", "this node's URL within -peers (required with -peers)")
		replicas     = flag.Int("replicas", cluster.DefaultReplicas, "nodes (owner included) holding each completed result/dump blob")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
		slowAnalysis = flag.Duration("slow-analysis", 0, "log a span-tree summary to stderr for analyses at least this slow (0 = off)")
		maxBodyMB    = flag.Int64("max-body-mb", 0, "request-body cap in MiB for submissions and routing (0 = 256)")
		repairEvery  = flag.Duration("repair-interval", 0, "anti-entropy sweep period in cluster mode (0 = off; POST /internal/v1/repair always works)")
		spoolDir     = flag.String("spool-dir", "", "directory for spooling oversized routed bodies (empty = system temp)")
		faultSpec    = flag.String("fault-spec", "", "chaos-testing fault injection: comma-separated seam:kind:prob[:delay] rules (e.g. store:read-error:0.05)")
		faultSeed    = flag.Uint64("fault-seed", 1, "deterministic PRNG seed for -fault-spec")
		logFormat    = flag.String("log-format", "text", cli.LogFormatUsage)
		flightEvents = flag.Int("flightrec-events", obs.DefaultFlightEvents, "flight recorder ring capacity (events retained for /internal/v1/flightrec and crash dumps)")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("resd"))
		return
	}

	// The node identity tags every log record, span, and flight event:
	// the advertised URL in cluster mode, the bare process otherwise.
	nodeName := *advertise
	if nodeName == "" {
		nodeName = "resd"
	}
	flightRec := obs.NewFlightRecorder(*flightEvents)
	if err := cli.SetupLogging(*logFormat, nodeName, flightRec); err != nil {
		cli.Fatal(err)
	}
	// A crash must not take the flight recorder's story with it: dump the
	// ring to stderr before the runtime prints the stack and dies.
	defer func() {
		if rec := recover(); rec != nil {
			flightRec.Dump(os.Stderr, fmt.Sprintf("panic: %v", rec))
			panic(rec)
		}
	}()

	faults, err := fault.Parse(*faultSpec, *faultSeed)
	if err != nil {
		cli.Fatal(err)
	}
	if faults != nil {
		slog.Warn("CHAOS MODE: fault injection armed", "spec", fmt.Sprint(faults), "seed", *faultSeed)
	}

	var st *store.Store
	if *cacheDir != "" {
		if st, err = store.NewDisk(*cacheEntries, *cacheDir); err != nil {
			cli.Fatal(err)
		}
	} else {
		st = store.New(*cacheEntries)
	}
	st.SetFaults(faults)
	var journal *service.Journal
	if *journalPath != "" {
		if journal, err = service.OpenJournal(*journalPath); err != nil {
			cli.Fatal(err)
		}
		defer journal.Close()
		journal.SetFaults(faults)
	}
	svc := service.New(service.Config{
		Analysis: service.AnalysisConfig{
			MaxDepth:           *depth,
			MaxNodes:           *nodes,
			BeamWidth:          *beam,
			UseLBR:             *useLBR,
			LBRSkipConditional: *lbrSkip,
			MatchOutputs:       *outputs,
			SearchParallelism:  *searchP,
		},
		QueueDepth:     *queue,
		ShardWorkers:   *workers,
		JobTimeout:     *jobTimeout,
		Store:          st,
		MaxJobs:        *jobsCap,
		JobRetention:   *jobsTTL,
		MaxRetries:     *retries,
		RetryBackoff:   *retryBackoff,
		Journal:        journal,
		SlowThreshold:  *slowAnalysis,
		MaxRequestBody: *maxBodyMB << 20,
		Faults:         faults,
		Node:           nodeName,
		FlightRec:      flightRec,
	})

	handler := http.Handler(svc.Handler())
	var node *cluster.Node
	if *peersFlag != "" {
		if *advertise == "" {
			cli.Fatal(errors.New("resd: -peers requires -advertise (this node's URL within the peer list)"))
		}
		node, err = cluster.New(cluster.Config{
			Self:           *advertise,
			Peers:          strings.Split(*peersFlag, ","),
			Replicas:       *replicas,
			Service:        svc,
			RepairInterval: *repairEvery,
			SpoolDir:       *spoolDir,
			MaxRouteBody:   *maxBodyMB << 20,
			Faults:         faults,
			FlightRec:      flightRec,
		})
		if err != nil {
			cli.Fatal(err)
		}
		handler = node.Handler()
		slog.Info("cluster mode", "nodes", len(node.Peers()), "self", node.Self(), "replicas", *replicas)
	}
	if *pprofOn {
		// Profiling is opt-in: the pprof endpoints expose internals and
		// cost CPU when scraped, so fleet operators enable them only when
		// chasing a hot path.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		slog.Info("pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue, "depth", *depth)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		cli.Fatal(err)
	case s := <-sig:
		slog.Info("draining", "signal", s.String(), "timeout", *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain before detaching the cluster layer: analyses that complete
	// during the drain window must still write through to their replicas.
	if err := svc.Shutdown(ctx); err != nil {
		slog.Warn("drain cut short", "err", err)
	}
	if node != nil {
		node.Close()
	}
	if err := srv.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Warn("http shutdown", "err", err)
	}
	m := svc.Metrics()
	slog.Info("drained", "submitted", m.Submitted, "completed", m.Completed,
		"cached", m.CacheHits, "buckets", m.Buckets)
}
