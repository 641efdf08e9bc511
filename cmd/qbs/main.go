// Command qbs is the interactive front end of the library: it loads or
// generates a graph, builds the QbS index, and answers shortest-path-
// graph queries from the command line.
//
// Usage:
//
//	qbs -graph web.edges -landmarks 20 -query 14,907 -query 3,77
//	qbs -dataset TW -scale 0.1 -random 5         # 5 random queries
//	qbs -graph web.edges -stats                  # index statistics only
//	qbs -graph web.edges -data ./web-data        # build once, persist
//	qbs -data ./web-data -query 14,907           # reopen in sub-second
//	qbs -directed -graph web.arcs -query 14,907  # SPG(u → v) on a digraph
//	qbs -directed -dataset WK -data ./wk-data    # directed build + persist
//
// With -data the index lives in a durable data directory: the first run
// (which still needs a graph source) builds and persists it; later runs
// recover it from the snapshot + write-ahead log without rebuilding.
// -checkpoint persists a fresh snapshot before exiting.
//
// An edge list's vertex ids are renumbered densely in ascending order, so
// when the file numbers its vertices 0..n-1 — as gengraph writes them —
// the ids of -query are the file's own ids.
//
// With -directed the edge list is read as arcs (no symmetrising), the
// index answers SPG(u → v), and -data persists/recovers the directed
// snapshot (no write-ahead log: the directed index is immutable, so
// -checkpoint does not apply).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"qbs"
	"qbs/internal/datasets"
	"qbs/internal/obs"
)

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ";") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	var (
		graphPath  = flag.String("graph", "", "edge-list file to load")
		dataset    = flag.String("dataset", "", "dataset analog key instead of a file")
		scale      = flag.Float64("scale", 0.25, "dataset scale factor")
		landmarks  = flag.Int("landmarks", 20, "number of landmarks |R|")
		strategy   = flag.String("strategy", "degree", "landmark strategy: degree|random|coverage")
		random     = flag.Int("random", 0, "answer this many random queries")
		seed       = flag.Int64("seed", 1, "seed for -random and -strategy random")
		stats      = flag.Bool("stats", false, "print index statistics")
		verbose    = flag.Bool("v", false, "print the full edge set of each answer")
		dataDir    = flag.String("data", "", "durable data directory: built from the graph source if absent, recovered otherwise")
		checkpoint = flag.Bool("checkpoint", false, "persist a fresh snapshot to -data before exiting")
		directed   = flag.Bool("directed", false, "directed mode: read the graph as arcs and answer SPG(u → v)")
	)
	var queries queryList
	flag.Var(&queries, "query", "query pair \"u,v\" (repeatable)")
	flag.Parse()

	// answer is the query surface shared by the static and durable
	// paths.
	var answer interface {
		QueryWithStats(u, v qbs.V) (*qbs.SPG, qbs.QueryStats)
	}
	var numVertices int
	// Every arm that builds an index builds it with these settings.
	opts := qbs.Options{NumLandmarks: *landmarks, Strategy: qbs.Strategy(*strategy), Seed: *seed}

	switch {
	case *directed && *dataDir != "":
		ix := directedStore(*graphPath, *dataset, *scale, opts, *dataDir)
		if *stats {
			printIndexStats(ix)
		}
		answer, numVertices = ix, ix.Graph().NumVertices()
	case *dataDir != "" && qbs.StoreExists(*dataDir):
		start := time.Now()
		// Query-only runs open read-only: no writer lock, no log segment,
		// and the data dir is left byte-for-byte untouched. Only
		// -checkpoint needs a writable open.
		di, err := qbs.OpenStore(*dataDir, qbs.StoreOptions{MMap: true, ReadOnly: !*checkpoint})
		if err != nil {
			fatal(err)
		}
		defer di.Close()
		epoch, edges := di.EpochEdges()
		fmt.Printf("store: recovered %s in %s (|V|=%d |E|=%d epoch=%d)\n",
			*dataDir, time.Since(start).Round(time.Microsecond), di.NumVertices(), edges, epoch)
		if *stats {
			printStoreStats(di)
		}
		answer, numVertices = di, di.NumVertices()
		defer maybeCheckpoint(di, *checkpoint)
	case *dataDir != "":
		g := loadGraph(*graphPath, *dataset, *scale, false)
		start := time.Now()
		di, err := qbs.CreateStore(*dataDir, g, qbs.StoreOptions{Index: opts})
		if err != nil {
			fatal(err)
		}
		defer di.Close()
		fmt.Printf("store: built and persisted to %s in %s\n", *dataDir, time.Since(start).Round(time.Microsecond))
		if *stats {
			printStoreStats(di)
		}
		answer, numVertices = di, di.NumVertices()
	default:
		g := loadGraph(*graphPath, *dataset, *scale, *directed)
		start := time.Now()
		ix, err := qbs.BuildIndex(g, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("index: built in %s\n", time.Since(start).Round(time.Microsecond))

		if *stats {
			printIndexStats(ix)
		}
		answer, numVertices = ix, g.NumVertices()
	}

	pairs := parsePairs(queries, numVertices)
	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *random; i++ {
		pairs = append(pairs, [2]qbs.V{qbs.V(rng.Intn(numVertices)), qbs.V(rng.Intn(numVertices))})
	}

	// One loop prints either orientation; only the wording differs.
	pair, none, unit, link := "SPG(%d,%d)", "disconnected", "edges", "-"
	if *directed {
		pair, none, unit, link = "DiSPG(%d→%d)", "unreachable", "arcs", "->"
	}
	for _, p := range pairs {
		t0 := time.Now()
		spg, st := answer.QueryWithStats(p[0], p[1])
		el := time.Since(t0).Round(time.Nanosecond)
		name := fmt.Sprintf(pair, p[0], p[1])
		if spg.Dist == qbs.InfDist {
			fmt.Printf("%s: %s (%s)\n", name, none, el)
			continue
		}
		fmt.Printf("%s: dist=%d vertices=%d %s=%d d⊤=%d [%s]\n",
			name, spg.Dist, len(spg.Vertices()), unit, spg.NumEdges(), st.DTop, el)
		if *verbose {
			for _, e := range spg.Edges() {
				fmt.Printf("  %d %s %d\n", e.U, link, e.W)
			}
		}
	}
}

// directedStore is the -directed -data arm of main: recover the index
// persisted in dataDir, or build one into it.
func directedStore(graphPath, dataset string, scale float64, opts qbs.Options, dataDir string) *qbs.Index {
	start := time.Now()
	if qbs.DiStoreExists(dataDir) {
		ix, err := qbs.OpenDiStore(dataDir, qbs.DiStoreOptions{MMap: true})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("store: recovered directed index from %s in %s (|V|=%d arcs=%d)\n",
			dataDir, time.Since(start).Round(time.Microsecond),
			ix.Graph().NumVertices(), ix.Graph().NumArcs())
		return ix
	}
	g := loadGraph(graphPath, dataset, scale, true)
	start = time.Now()
	ix, err := qbs.CreateDiStore(dataDir, g, qbs.DiStoreOptions{Index: opts})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("store: built and persisted to %s in %s\n", dataDir, time.Since(start).Round(time.Microsecond))
	return ix
}

// printIndexStats is the -stats block of an immutable index. The
// timings are printed only for an index built in this process: a build
// records its parallelism, at least 1, while an index reopened from a
// data directory carries no build timings to print.
func printIndexStats(ix *qbs.Index) {
	st := ix.Stats()
	fmt.Printf("  landmarks:      %d\n", len(ix.Landmarks()))
	if st.Parallelism > 0 {
		fmt.Printf("  labelling time: %s (parallelism %d)\n", st.LabellingTime.Round(time.Microsecond), st.Parallelism)
		fmt.Printf("  meta/Δ time:    %s\n", st.MetaTime.Round(time.Microsecond))
	}
	fmt.Printf("  label entries:  %d\n", st.LabelEntries)
	fmt.Printf("  meta edges:     %d\n", st.MetaEdges)
	fmt.Printf("  size(L):        %d bytes\n", ix.SizeLabelsBytes())
	fmt.Printf("  size(Δ):        %d bytes\n", ix.SizeDeltaBytes())
}

// parsePairs converts -query strings into vertex pairs, validating
// against the vertex count.
func parsePairs(queries queryList, numVertices int) [][2]qbs.V {
	var pairs [][2]qbs.V
	for _, q := range queries {
		parts := strings.SplitN(q, ",", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad -query %q, want \"u,v\"", q))
		}
		u, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		v, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= numVertices || v >= numVertices {
			fatal(fmt.Errorf("bad -query %q for graph with %d vertices", q, numVertices))
		}
		pairs = append(pairs, [2]qbs.V{qbs.V(u), qbs.V(v)})
	}
	return pairs
}

// printStoreStats is the -stats block for the durable-store paths
// (construction timings live in the store, not the process, so the
// static build's labelling/meta split is not reported here).
func printStoreStats(di *qbs.DynamicIndex) {
	epoch, edges := di.EpochEdges()
	fmt.Printf("  landmarks:      %d\n", len(di.Landmarks()))
	fmt.Printf("  epoch:          %d\n", epoch)
	fmt.Printf("  edges:          %d\n", edges)
	fmt.Printf("  size(L):        %d bytes\n", di.SizeLabelsBytes())
	fmt.Printf("  size(Δ):        %d bytes\n", di.SizeDeltaBytes())
}

func maybeCheckpoint(di *qbs.DynamicIndex, enabled bool) {
	if !enabled {
		return
	}
	start := time.Now()
	epoch, err := di.Checkpoint()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("store: checkpointed epoch %d in %s\n", epoch, time.Since(start).Round(time.Microsecond))
}

// loadGraph resolves the graph source, an edge-list file or a dataset
// analog, as an undirected graph or a directed one, and prints its size.
func loadGraph(path, dataset string, scale float64, directed bool) *qbs.Graph {
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
		fatal(err)
	}
	fmt.Printf("graph: |V|=%d |E|=%d avg deg %.2f\n", g.NumVertices(), g.NumEdges(), g.AvgDegree())
	return g
}

func fatal(err error) {
	msg := err.Error()
	obs.DefaultJournal.Def("process", "error", obs.LevelError).
		Emit(obs.Str("stage", "fatal"), obs.Str("error", msg))
	if !strings.HasPrefix(msg, "qbs: ") {
		msg = "qbs: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
