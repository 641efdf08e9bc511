package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"qbs"
	"qbs/internal/datasets"
	"qbs/internal/server"
)

// localGraph is the benchmark's own copy of the workload's graph: the
// sampling domain of the generated requests and the ground truth of the
// oracle check. The servers never see it; they generate theirs from the
// same dataset key and scale.
type localGraph struct {
	n  int
	g  *qbs.Graph   // the workload's graph; for a directed workload, its symmetrised arcs
	dg *qbs.DiGraph // the workload's digraph; nil on undirected workloads

	generate time.Duration // the dataset generator alone
}

func generateLocal(w workload) (*localGraph, error) {
	spec, err := datasets.ByKey(w.dataset)
	if err != nil {
		return nil, err
	}
	lg := &localGraph{}
	start := time.Now()
	if !w.directed {
		lg.g = spec.Generate(w.scale)
		lg.generate = time.Since(start)
		lg.n = lg.g.NumVertices()
		return lg, nil
	}
	lg.dg = spec.GenerateDirected(w.scale)
	lg.generate = time.Since(start)
	lg.n = lg.dg.NumVertices()
	b := qbs.NewBuilder(lg.n)
	for _, a := range lg.dg.Arcs() {
		b.AddEdge(a.From, a.To)
	}
	lg.g, err = b.Build()
	return lg, err
}

// numEdges is |E| as the workload's server reports it: arcs when
// directed.
func (lg *localGraph) numEdges() int {
	if lg.dg != nil {
		return lg.dg.NumArcs()
	}
	return lg.g.NumEdges()
}

// withWrites returns the graph after the acknowledged writes, rebuilt
// from the edge list: the from-scratch side of the comparison.
func (lg *localGraph) withWrites(acked []op) (*localGraph, error) {
	if len(acked) == 0 {
		return lg, nil
	}
	edges := make(map[qbs.Edge]struct{}, lg.g.NumEdges()+len(acked))
	for _, e := range lg.g.Edges() {
		edges[e] = struct{}{}
	}
	for _, o := range acked {
		e := qbs.Edge{U: o.u, W: o.v}.Normalize()
		if o.kind == opInsert {
			edges[e] = struct{}{}
		} else {
			delete(edges, e)
		}
	}
	b := qbs.NewBuilder(lg.n)
	for e := range edges {
		b.AddEdge(e.U, e.W)
	}
	g, err := b.Build()
	return &localGraph{n: lg.n, g: g, generate: lg.generate}, err
}

// truth is the from-scratch answer for one pair in the reply's terms.
type truth struct {
	dist     int32 // qbs.InfDist when disconnected
	vertices []int32
	edges    [][2]int32
	paths    int64
}

func (lg *localGraph) oracle(u, v int32) truth {
	var t truth
	if lg.dg != nil {
		spg := qbs.OracleDiSPG(lg.dg, u, v)
		t.dist, t.vertices = spg.Dist, spg.Vertices()
		for _, a := range spg.Arcs() {
			t.edges = append(t.edges, [2]int32{a.From, a.To})
		}
	} else {
		spg := qbs.OracleSPG(lg.g, u, v)
		t.dist, t.vertices = spg.Dist, spg.Vertices()
		for _, e := range spg.Edges() {
			t.edges = append(t.edges, [2]int32{e.U, e.W})
		}
	}
	t.paths = countPaths(u, v, t.edges, lg.dg != nil)
	return t
}

// countPaths counts the u–v paths of a shortest path graph by breadth
// first layering from u, saturating at MaxInt64 as the server does.
func countPaths(u, v int32, edges [][2]int32, directed bool) int64 {
	if u == v {
		return 1
	}
	next := map[int32][]int32{}
	for _, e := range edges {
		next[e[0]] = append(next[e[0]], e[1])
		if !directed {
			next[e[1]] = append(next[e[1]], e[0])
		}
	}
	depth := map[int32]int{u: 0}
	count := map[int32]int64{u: 1}
	for queue := []int32{u}; len(queue) > 0; queue = queue[1:] {
		x := queue[0]
		for _, y := range next[x] {
			if _, seen := depth[y]; !seen {
				depth[y] = depth[x] + 1
				queue = append(queue, y)
			}
			if depth[y] == depth[x]+1 {
				if count[x] > math.MaxInt64-count[y] {
					count[y] = math.MaxInt64
				} else {
					count[y] += count[x]
				}
			}
		}
	}
	return count[v]
}

// oraclePairs is how many sampled pairs are checked per run: each pair
// costs two full breadth-first sweeps of the graph, and one oracle answer
// checks one /spg and one /distance reply.
const oraclePairs = 40

// checkOracle compares /spg and /distance replies for oraclePairs pairs
// of the workload's own sampling rule with from-scratch evaluation on
// lg. minEpoch > 0 is sent as min_epoch, so a dynamic server answers
// from a state that includes every acknowledged write. It returns the
// replies checked and the mismatches.
func checkOracle(w workload, url string, lg *localGraph, seed int64, minEpoch uint64) (attempted, failed int, firstErr string) {
	c := dial(url)
	defer c.close()
	mismatch := func(format string, args ...any) {
		failed++
		if firstErr == "" {
			firstErr = fmt.Sprintf(format, args...)
		}
	}
	for _, o := range readOps(w, lg, oraclePairs, seed*16+4) {
		want := lg.oracle(o.u, o.v)

		attempted++
		o.kind = opSPG
		var spg server.SPGResponse
		if err := getJSON(c, o.path(minEpoch), &spg); err != nil {
			mismatch("%v", err)
		} else if err := want.matchSPG(&spg); err != nil {
			mismatch("%s: %v", o.path(minEpoch), err)
		}

		attempted++
		o.kind = opDistance
		var dist server.DistanceResponse
		if err := getJSON(c, o.path(minEpoch), &dist); err != nil {
			mismatch("%v", err)
		} else if err := want.matchDistance(dist.Distance, dist.Disconnected); err != nil {
			mismatch("%s: %v", o.path(minEpoch), err)
		}
	}
	return attempted, failed, firstErr
}

func getJSON(c *conn, path string, into any) error {
	status, body, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %.120q", path, status, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("GET %s: malformed body: %w", path, err)
	}
	return nil
}

func (t truth) matchDistance(got *int32, disconnected bool) error {
	if t.dist == qbs.InfDist {
		if got != nil || !disconnected {
			return fmt.Errorf("pair is disconnected, reply says distance %v", got)
		}
		return nil
	}
	if got == nil || disconnected || *got != t.dist {
		return fmt.Errorf("distance %v (disconnected=%v), want %d", got, disconnected, t.dist)
	}
	return nil
}

func (t truth) matchSPG(r *server.SPGResponse) error {
	if err := t.matchDistance(r.Distance, r.Disconnected); err != nil {
		return err
	}
	if t.dist == qbs.InfDist {
		return nil
	}
	if !slices.Equal(r.Vertices, t.vertices) {
		return fmt.Errorf("vertex set has %d vertices, want %d", len(r.Vertices), len(t.vertices))
	}
	if !slices.Equal(r.Edges, t.edges) {
		return fmt.Errorf("edge set has %d edges, want %d", len(r.Edges), len(t.edges))
	}
	if r.NumPaths != t.paths {
		return fmt.Errorf("num_shortest_paths %d, want %d", r.NumPaths, t.paths)
	}
	return nil
}
