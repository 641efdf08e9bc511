// Package datasets provides deterministic synthetic stand-ins for the 12
// real-world networks of the paper's Table 1.
//
// The module is offline and the original graphs reach 1.7B vertices /
// 7.8B edges, so each dataset is replaced by a seeded generator mix that
// reproduces the structural property the paper's analysis leans on:
//
//   - hub-dominated degree distributions (Barabási–Albert, optionally
//     hub-boosted) for the social/web graphs whose high-degree landmarks
//     cover most shortest paths (Youtube, WikiTalk, Baidu, Twitter,
//     ClueWeb09 — §6.3's high pair-coverage group);
//   - flat, near-regular degree distributions (Erdős–Rényi) for
//     Friendster, whose pair coverage the paper reports as extremely low;
//   - mixes for the in-between networks (DBLP's clustering, Skitter's
//     locality, Orkut's dense-but-even degrees).
//
// Vertex counts are scaled down ~3 orders of magnitude; average degrees
// track Table 1. Every analog is connected (largest component) and
// deterministic in (name, scale).
package datasets

import (
	"fmt"

	"qbs/internal/graph"
)

// Spec describes one dataset analog.
type Spec struct {
	Key      string // short key used in the paper's tables (DO, DB, …)
	Name     string // real dataset name
	Kind     string // network type, as in Table 1
	Directed bool   // the real dataset is directed (treated undirected)
	// BaseVertices is |V| at scale 1.
	BaseVertices int
	// TargetAvgDeg is the Table 1 average degree the generator aims for.
	TargetAvgDeg float64
	// build generates the graph for n vertices.
	build func(n int, seed int64) *graph.Graph
}

// PaperTable1 carries the published statistics we compare analogs
// against in EXPERIMENTS.md.
type PaperTable1 struct {
	Vertices float64 // millions
	Edges    float64 // millions (|E_un|)
	AvgDeg   float64
	AvgDist  float64
}

// Paper holds the real Table 1 rows (|V| and |E_un| in millions).
var Paper = map[string]PaperTable1{
	"DO": {0.2, 0.3, 4.2, 5.2},
	"DB": {0.3, 1.1, 6.6, 6.8},
	"YT": {1.1, 3.0, 5.27, 5.3},
	"WK": {2.4, 4.7, 3.89, 3.9},
	"SK": {1.7, 11.1, 13.08, 5.1},
	"BA": {2.1, 17.0, 15.89, 4.1},
	"LJ": {4.8, 43.1, 17.79, 5.5},
	"OR": {3.1, 117, 76.28, 4.2},
	"TW": {41.7, 1200, 57.74, 3.6},
	"FR": {65.6, 1800, 55.06, 4.8},
	"UK": {106, 3300, 62.77, 5.6},
	"CW": {1700, 7800, 9.27, 7.5},
}

// seedOf gives each dataset a stable generator seed.
func seedOf(key string) int64 {
	var s int64
	for _, c := range key {
		s = s*131 + int64(c)
	}
	return s + 20210104 // paper's SIGMOD year makes seeds stable and obvious
}

// All returns the 12 specs in the paper's Table 1 order.
func All() []Spec {
	return []Spec{
		{
			Key: "DO", Name: "Douban", Kind: "social", Directed: false,
			BaseVertices: 20000, TargetAvgDeg: 4.2,
			build: func(n int, seed int64) *graph.Graph {
				return graph.BarabasiAlbert(n, 2, seed)
			},
		},
		{
			Key: "DB", Name: "DBLP", Kind: "co-authorship", Directed: false,
			BaseVertices: 25000, TargetAvgDeg: 6.6,
			build: func(n int, seed int64) *graph.Graph {
				g := graph.BarabasiAlbert(n, 3, seed)
				return graph.TriadicClosure(g, n/8, seed+1)
			},
		},
		{
			Key: "YT", Name: "Youtube", Kind: "social", Directed: false,
			BaseVertices: 40000, TargetAvgDeg: 5.27,
			build: func(n int, seed int64) *graph.Graph {
				g := graph.BarabasiAlbert(n, 2, seed)
				return graph.HubBoost(g, 8, n/80, seed+1)
			},
		},
		{
			Key: "WK", Name: "WikiTalk", Kind: "communication", Directed: true,
			BaseVertices: 45000, TargetAvgDeg: 3.89,
			build: func(n int, seed int64) *graph.Graph {
				g := graph.BarabasiAlbert(n, 1, seed)
				return graph.HubBoost(g, 6, n/40, seed+1)
			},
		},
		{
			Key: "SK", Name: "Skitter", Kind: "computer", Directed: false,
			BaseVertices: 35000, TargetAvgDeg: 13.08,
			build: func(n int, seed int64) *graph.Graph {
				ba := graph.BarabasiAlbert(n, 5, seed)
				er := graph.ErdosRenyi(n, n*3/2, seed+1)
				return graph.Union(ba, er)
			},
		},
		{
			Key: "BA", Name: "Baidu", Kind: "web", Directed: true,
			BaseVertices: 40000, TargetAvgDeg: 15.89,
			build: func(n int, seed int64) *graph.Graph {
				g := graph.BarabasiAlbert(n, 7, seed)
				return graph.HubBoost(g, 10, n/60, seed+1)
			},
		},
		{
			Key: "LJ", Name: "LiveJournal", Kind: "social", Directed: true,
			BaseVertices: 50000, TargetAvgDeg: 17.79,
			build: func(n int, seed int64) *graph.Graph {
				return graph.BarabasiAlbert(n, 9, seed)
			},
		},
		{
			Key: "OR", Name: "Orkut", Kind: "social", Directed: false,
			BaseVertices: 30000, TargetAvgDeg: 76.28,
			build: func(n int, seed int64) *graph.Graph {
				ba := graph.BarabasiAlbert(n, 18, seed)
				er := graph.ErdosRenyi(n, n*20, seed+1)
				return graph.Union(ba, er)
			},
		},
		{
			Key: "TW", Name: "Twitter", Kind: "social", Directed: true,
			BaseVertices: 45000, TargetAvgDeg: 57.74,
			build: func(n int, seed int64) *graph.Graph {
				g := graph.BarabasiAlbert(n, 25, seed)
				return graph.HubBoost(g, 12, n/12, seed+1)
			},
		},
		{
			Key: "FR", Name: "Friendster", Kind: "social", Directed: false,
			BaseVertices: 60000, TargetAvgDeg: 55.06,
			build: func(n int, seed int64) *graph.Graph {
				// Near-regular: evenly distributed degrees, no hubs.
				return graph.ErdosRenyi(n, n*27, seed)
			},
		},
		{
			Key: "UK", Name: "uk2007", Kind: "web", Directed: true,
			BaseVertices: 55000, TargetAvgDeg: 62.77,
			build: func(n int, seed int64) *graph.Graph {
				ba := graph.BarabasiAlbert(n, 22, seed)
				ws := graph.WattsStrogatz(n, 12, 0.1, seed+1)
				return graph.Union(ba, ws)
			},
		},
		{
			Key: "CW", Name: "ClueWeb09", Kind: "computer", Directed: true,
			BaseVertices: 80000, TargetAvgDeg: 9.27,
			build: func(n int, seed int64) *graph.Graph {
				g := graph.BarabasiAlbert(n, 4, seed)
				return graph.HubBoost(g, 10, n/100, seed+1)
			},
		},
	}
}

// Keys returns the 12 dataset keys in table order.
func Keys() []string {
	specs := All()
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key
	}
	return keys
}

// ByKey returns the spec for a key.
func ByKey(key string) (Spec, error) {
	for _, s := range All() {
		if s.Key == key {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown key %q (known: %v)", key, Keys())
}

// Generate builds the analog at the given scale (scale 1 = BaseVertices;
// 0 means 1). The result is the largest connected component, matching
// the paper's connectivity assumption.
func (s Spec) Generate(scale float64) *graph.Graph {
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(s.BaseVertices) * scale)
	if n < 16 {
		n = 16
	}
	g := s.build(n, seedOf(s.Key))
	lc, _ := g.LargestComponent()
	return lc
}

// GenerateDirected builds a *directed* analog at the given scale. For
// the seven datasets Table 1 marks directed (WK, BA, LJ, TW, UK, CW and
// the directed reading of DB's citation flavour), arcs are generated by
// directed preferential attachment with the average total degree matched
// to the undirected analog; undirected datasets are symmetrised. This
// feeds the directed-QbS experiment (the paper evaluates the undirected
// reading only; §2 claims the directed extension).
func (s Spec) GenerateDirected(scale float64) *graph.Graph {
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(s.BaseVertices) * scale)
	if n < 16 {
		n = 16
	}
	if !s.Directed {
		return graph.AsDirected(s.Generate(scale))
	}
	m := int(s.TargetAvgDeg / 2)
	if m < 1 {
		m = 1
	}
	return graph.DirectedScaleFree(n, m, seedOf(s.Key)+7)
}
