// Command qbs-server serves shortest-path-graph queries over HTTP.
//
// Usage:
//
//	qbs-server -graph web.edges -landmarks 20 -addr :8080
//	qbs-server -dataset YT -scale 0.5 -data ./yt-data  # build once and persist
//	qbs-server -data ./yt-data                         # reopen read-only, no rebuild
//	qbs-server -dataset YT -mutable                    # accept edge writes
//	qbs-server -dataset YT -mutable -data ./yt-data    # durable: survive restarts
//	qbs-server -data ./yt-data -mutable                # reopen in sub-second
//	qbs-server -directed -dataset WK                   # serve SPG(u → v)
//	qbs-server -directed -dataset WK -data ./wk-data   # directed + durable
//
// Replication (see internal/replica for the protocol and README
// "Replication & read scaling" for the topology):
//
//	qbs-server -primary -dataset YT -data ./yt -addr :8080
//	qbs-server -replica-of http://primary:8080 -addr :8081
//	qbs-server -replica-of http://primary:8080 -addr :8082
//	qbs-server -router http://primary:8080,http://r1:8081,http://r2:8082 -addr :8090
//
// Endpoints: /spg, /distance, /sketch, /paths, /stats, /healthz, and in
// -mutable mode POST /edges, DELETE /edges, /epoch, POST /checkpoint —
// see internal/server for the JSON schemas — plus, in every mode and on
// -debug-addr, /metrics (Prometheus text, the one rendering) and the
// /debug/ routes of obs.DebugRoutes (traces, slowlog, logs); profiles
// are net/http/pprof's, on -debug-addr. -slowlog and -trace-sample tune
// which traces the span store retains (README "Distributed tracing");
// the journal admits every event its rate limits let through, and
// GET /debug/logs?min_level= filters what is read.
//
// With -directed the graph is directed: an edge list is read as arcs
// and a dataset analog in its directed reading, the index built over it
// answers SPG(u → v) on /spg, and -data persists/recovers a directed
// snapshot. -directed is read-only and incompatible with -mutable.
//
// The graph source is an edge-list file (-graph) or a dataset analog
// (-dataset). -data is the one way to persist an index, of either
// orientation: the server then owns a durable data directory. On first
// start it builds the index from the graph source and persists it,
// graph included, in a checksummed snapshot; on every later start it
// recovers from the newest snapshot plus write-ahead-log replay (no
// graph source needed, and no rebuild — a killed server comes back with
// the exact pre-crash index, same epoch included). Without -mutable the
// recovered index is served read-only.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, drains in-flight requests (bounded by -drain) and
// flushes the log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"qbs"
	"qbs/internal/datasets"
	"qbs/internal/obs"
	"qbs/internal/replica"
	"qbs/internal/server"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file to load")
		dataset   = flag.String("dataset", "", "dataset analog key instead of a file")
		scale     = flag.Float64("scale", 0.25, "dataset scale factor")
		landmarks = flag.Int("landmarks", 20, "number of landmarks |R|")
		dataDir   = flag.String("data", "", "durable data directory: created from the graph source on first start, recovered (snapshot + WAL replay) afterwards")
		syncEvery = flag.Int("sync-every", 0, "batch WAL fsyncs every N writes (0/1 = every write)")
		addr      = flag.String("addr", ":8080", "listen address")
		mutable   = flag.Bool("mutable", false, "serve a live-mutable index accepting edge writes")
		directed  = flag.Bool("directed", false, "serve a directed index answering SPG(u → v); read-only")
		primary   = flag.Bool("primary", false, "serve the replication feed (/replication/snapshot, /replication/wal) alongside the mutable API; requires -data, implies -mutable")
		replicaOf = flag.String("replica-of", "", "run as a read replica of the primary at this base URL (bootstraps from its snapshot, tails its WAL)")
		routerOf  = flag.String("router", "", "run as a query router: comma-separated <primary-url>,<replica-url>... — reads fan across replicas, writes forward to the primary")
		poll      = flag.Duration("poll", 25*time.Millisecond, "replica WAL tail poll interval (bounds replication lag)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		debugAddr = flag.String("debug-addr", "", "serve /debug/pprof, the process-wide /debug/ routes and Prometheus metrics on this separate address (empty = disabled)")
		slowlog   = flag.Duration("slowlog", 0, "slow-query log threshold for GET /debug/slowlog (0 = 100ms default)")
		traceSamp = flag.Int("trace-sample", 0, "head-sample 1 in N traces into /debug/traces on top of the always-retained slow/errored/force-sampled ones (0 = tail-only)")
	)
	flag.Parse()

	// Tracing and journalling policy is process-wide: the serving
	// middleware, the router, and the background roots (WAL fsync,
	// checkpoint, compaction, replica apply) all record into
	// obs.DefaultTracer and obs.DefaultJournal, whatever the mode.
	if *traceSamp > 0 {
		obs.DefaultTracer.SetHeadEvery(*traceSamp)
	}
	if *slowlog > 0 {
		// The one threshold: slow traces always survive tail sampling,
		// and the slow requests among them are the slow-query log.
		obs.DefaultTracer.SetSlowThreshold(*slowlog)
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	if *primary {
		if *dataDir == "" {
			fatal(fmt.Errorf("-primary requires -data (the WAL it ships lives there)"))
		}
		if *directed {
			fatal(fmt.Errorf("-primary is incompatible with -directed"))
		}
		*mutable = true
	}
	if *replicaOf != "" && (*mutable || *directed || *primary || *routerOf != "") {
		fatal(fmt.Errorf("-replica-of is a standalone read-only mode"))
	}
	if *routerOf != "" && (*mutable || *directed || *primary || *dataDir != "") {
		fatal(fmt.Errorf("-router is a standalone proxy mode"))
	}

	// Router mode: no local index at all — just the fan-out proxy.
	if *routerOf != "" {
		parts := strings.Split(*routerOf, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		if len(parts) < 2 || parts[0] == "" {
			fatal(fmt.Errorf("-router needs <primary-url>,<replica-url>[,...]"))
		}
		rt := replica.NewRouter(parts[0], parts[1:], replica.RouterOptions{})
		defer rt.Stop()
		fmt.Printf("router: %s\n", rt.Backends())
		lifecycle("router", "backends", rt.Backends())
		serve(*addr, *drain, rt, nil)
		return
	}

	// Replica mode: bootstrap from the primary, serve read-only, keep
	// tailing until shutdown.
	if *replicaOf != "" {
		start := time.Now()
		rep, err := replica.Start(*replicaOf, replica.Options{
			Dir:          *dataDir,
			MMap:         true,
			PollInterval: *poll,
			SlowLog:      *slowlog,
		})
		if err != nil {
			fatal(err)
		}
		defer rep.Stop()
		epoch, edges := rep.Index().EpochEdges()
		fmt.Printf("replica: bootstrapped from %s in %s (|V|=%d |E|=%d epoch=%d)\n",
			*replicaOf, time.Since(start).Round(time.Millisecond),
			rep.Index().NumVertices(), edges, epoch)
		serve(*addr, *drain, rep.Handler(), nil)
		return
	}

	var handler http.Handler
	var index *qbs.Index
	var dyn *qbs.DynamicIndex
	switch {
	case *directed && *mutable:
		fatal(fmt.Errorf("-directed is read-only and incompatible with -mutable"))
	case *directed && *dataDir != "" && qbs.DiStoreExists(*dataDir):
		start := time.Now()
		var err error
		index, err = qbs.OpenDiStore(*dataDir, qbs.DiStoreOptions{MMap: true})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("store: recovered directed index from %s in %s (|V|=%d arcs=%d)\n",
			*dataDir, startup("store", start), index.Graph().NumVertices(), index.Graph().NumArcs())
	case *directed && *dataDir != "":
		g, err := loadGraph(*graphPath, *dataset, *scale, true)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		index, err = qbs.CreateDiStore(*dataDir, g, qbs.DiStoreOptions{Index: qbs.Options{NumLandmarks: *landmarks}})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("store: built and persisted to %s in %s (%d landmarks)\n",
			*dataDir, startup("store", start), len(index.Landmarks()))
	case *dataDir != "" && qbs.StoreExists(*dataDir):
		// Restart path: recover, no graph source and no rebuild needed.
		start := time.Now()
		var err error
		dyn, err = qbs.OpenStore(*dataDir, qbs.StoreOptions{
			ReadOnly:  !*mutable,
			MMap:      true,
			SyncEvery: *syncEvery,
		})
		if err != nil {
			fatal(err)
		}
		epoch, edges := dyn.EpochEdges()
		fmt.Printf("store: recovered %s in %s (|V|=%d |E|=%d epoch=%d)\n",
			*dataDir, startup("store", start), dyn.NumVertices(), edges, epoch)
	case *dataDir != "":
		g, err := loadGraph(*graphPath, *dataset, *scale, false)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		dyn, err = qbs.CreateStore(*dataDir, g, qbs.StoreOptions{
			Index:     qbs.Options{NumLandmarks: *landmarks},
			SyncEvery: *syncEvery,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("store: built and persisted to %s in %s (%d landmarks)\n",
			*dataDir, startup("store", start), len(dyn.Landmarks()))
	case *mutable:
		g, err := loadGraph(*graphPath, *dataset, *scale, false)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		dyn, err = qbs.BuildDynamicIndex(g, qbs.DynamicOptions{
			Index: qbs.Options{NumLandmarks: *landmarks},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dynamic index: built in %s (%d landmarks, mutable, not persisted)\n",
			startup("index", start), len(dyn.Landmarks()))
	default:
		g, err := loadGraph(*graphPath, *dataset, *scale, *directed)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		index, err = qbs.BuildIndex(g, qbs.Options{NumLandmarks: *landmarks})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("index: built in %s (%d landmarks)\n", startup("index", start), len(index.Landmarks()))
	}
	if index != nil {
		handler = server.New(index)
	}
	if dyn != nil {
		if *mutable {
			handler = server.NewMutable(dyn)
		} else {
			handler = server.NewDynamicReadOnly(dyn)
		}
		if *primary {
			// The replication feed rides alongside the serving API: the
			// store ships its snapshot and WAL tail under /replication/.
			prim := replica.NewPrimary(dyn.Store(), replica.PrimaryOptions{})
			defer prim.Close()
			mux := http.NewServeMux()
			mux.Handle("/replication/", prim)
			mux.Handle("/", handler)
			handler = mux
			fmt.Println("replication: serving /replication/snapshot and /replication/wal")
		}
	}
	serve(*addr, *drain, handler, dyn)
}

// debugHandler is the operator side-channel: pprof, a Prometheus
// rendering of the process-wide registry (WAL append, startup, build
// and goroutine series), and the /debug/ routes every tier serves, here
// over the process-wide sources — the background roots
// obs.DefaultTracer records (WAL fsync batches, checkpoints,
// replica.apply) among them.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = obs.WritePrometheus(w, obs.Default)
	})
	mux.Handle("/debug/", obs.DebugMux(&obs.DebugSources{
		Tracer:  obs.DefaultTracer,
		Journal: obs.DefaultJournal,
	}))
	return mux
}

// serveDebug runs debugHandler on an address that is never exposed to
// query clients, under the header timeout alone:
// /debug/pprof/profile?seconds=N streams for N seconds.
func serveDebug(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err == nil {
		fmt.Printf("debug: pprof and process metrics on %s\n", addr)
		lifecycle("debug", "addr", addr)
		err = server.NewDebugLoop(debugHandler()).Serve(ln)
	}
	fmt.Fprintln(os.Stderr, "qbs-server: debug server:", err)
	evProcErr.Emit(obs.Str("stage", "debug_server"), obs.Str("error", err.Error()))
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains
// in-flight requests and (for durable indexes) flushes the store.
func serve(addr string, drain time.Duration, handler http.Handler, dyn *qbs.DynamicIndex) {
	// Drop what the start left behind (builder pairs, labelling scratch)
	// now: otherwise the collector's next goal is still twice the
	// start's heap, and serving grows the process to it.
	runtime.GC()
	loop := server.NewLoop(handler)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("serving on %s\n", addr)
		lifecycle("serve", "addr", addr)
		errCh <- loop.Serve(ln)
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("shutting down...")
		lifecycle("shutdown", "addr", addr)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := loop.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "qbs-server: drain incomplete:", err)
			evProcErr.Emit(obs.Str("stage", "drain"), obs.Str("error", err.Error()))
		}
		if dyn != nil {
			if err := dyn.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "qbs-server: store close:", err)
				evProcErr.Emit(obs.Str("stage", "store_close"), obs.Str("error", err.Error()))
			}
		}
		fmt.Println("bye")
	}
}

// startup closes one layer of the cold start — "graph" (parse or
// generate), "index" (build), "store" (create or recover, the
// index build inside it included) — and exports what it took as
// qbs_startup_seconds{stage=…}: the layers `go run ./benchmark -trace 1`
// reports as datasets.generate_s, core.build_s and store.create_s, so a
// production scrape and a benchmark run split setup_s the same way. A
// stage this start did not run has no series. It returns the duration
// rounded for the console line.
func startup(stage string, start time.Time) time.Duration {
	took := time.Since(start)
	obs.Default.GaugeFunc("qbs_startup_seconds", fmt.Sprintf("stage=%q", stage), took.Seconds)
	return took.Round(time.Millisecond)
}

// loadGraph resolves the graph source, an edge-list file or a dataset
// analog, as an undirected graph or a directed one.
func loadGraph(path, dataset string, scale float64, directed bool) (*qbs.Graph, error) {
	start := time.Now()
	var g *qbs.Graph
	var err error
	switch {
	case path != "":
		g, _, err = qbs.LoadEdgeListFile(path, directed)
	case dataset != "":
		var spec datasets.Spec
		if spec, err = datasets.ByKey(dataset); err == nil && directed {
			g = spec.GenerateDirected(scale)
		} else if err == nil {
			g = spec.Generate(scale)
		}
	default:
		err = fmt.Errorf("one of -graph or -dataset is required (or -data with an existing store)")
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("graph: |V|=%d |E|=%d loaded in %s\n", g.NumVertices(), g.NumEdges(), startup("graph", start))
	// Drop what the load left behind (a file's pairs and parse buffers,
	// the parts a composed analog was merged from; a generator keeps no
	// pair list beside its CSR) before the build allocates on top of it.
	runtime.GC()
	return g, nil
}

// Process-lifecycle events mirror the stdout/stderr prints into the
// journal, so a /debug/logs scrape (serving mux or -debug-addr) tells
// the same startup/shutdown story the console did.
var (
	evLifecycle = obs.DefaultJournal.Def("process", "lifecycle", obs.LevelInfo)
	evProcErr   = obs.DefaultJournal.Def("process", "error", obs.LevelError)
)

func lifecycle(stage, key, val string) {
	evLifecycle.Emit(obs.Str("stage", stage), obs.Str(key, val))
}

func fatal(err error) {
	evProcErr.Emit(obs.Str("stage", "fatal"), obs.Str("error", err.Error()))
	fmt.Fprintln(os.Stderr, "qbs-server:", err)
	os.Exit(1)
}
