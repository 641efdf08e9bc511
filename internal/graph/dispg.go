package graph

import (
	"fmt"
	"slices"
	"strings"
)

// DiSPG is a directed shortest path graph: exactly the union of all
// shortest directed Source→Target paths. The directed analogue of SPG.
type DiSPG struct {
	Source, Target V
	Dist           int32

	keys      []uint64 // arcs as found, packed like SPG's edges; sorted and distinct once canonical
	arcs      []Arc    // keys unpacked; valid while canonical
	canonical bool
}

// NewDiSPG creates an empty directed shortest path graph.
func NewDiSPG(u, v V) *DiSPG {
	return &DiSPG{Source: u, Target: v, Dist: InfDist, canonical: true}
}

// Reset re-initialises the DiSPG for a new pair (u, v), keeping the arc
// buffer's capacity. Query paths reuse one DiSPG across many queries to
// stay allocation-free once the buffer has grown to its working size.
//
//qbs:zeroalloc
func (s *DiSPG) Reset(u, v V) {
	s.Source, s.Target = u, v
	s.Dist = InfDist
	s.keys, s.arcs = s.keys[:0], s.arcs[:0]
	s.canonical = true
}

// AddArc records an arc of some shortest path (duplicates allowed).
func (s *DiSPG) AddArc(from, to V) {
	s.keys = append(s.keys, packPair(from, to))
	s.canonical = false
}

// Fill completes a Reset result with the distance and the oriented
// pairs (x→y) a search emitted, kept as the arcs they are.
//
//qbs:zeroalloc
func (s *DiSPG) Fill(dist int32, pairs []Arc) {
	s.Dist = dist
	for _, p := range pairs {
		s.keys = append(s.keys, packPair(p.From, p.To))
	}
	s.canonical = len(s.keys) == 0
}

// Canonicalize sorts and deduplicates the arc set.
func (s *DiSPG) Canonicalize() {
	if s.canonical {
		return
	}
	s.keys = sortDistinct(s.keys)
	s.arcs = s.arcs[:0]
	for _, k := range s.keys {
		from, to := unpackPair(k)
		s.arcs = append(s.arcs, Arc{from, to})
	}
	s.canonical = true
}

// Arcs returns the canonical sorted arc set (do not modify).
func (s *DiSPG) Arcs() []Arc {
	s.Canonicalize()
	return s.arcs
}

// NumArcs returns the number of distinct arcs.
func (s *DiSPG) NumArcs() int {
	s.Canonicalize()
	return len(s.arcs)
}

// Vertices returns the sorted vertex set covered by the arcs.
func (s *DiSPG) Vertices() []V {
	s.Canonicalize()
	if len(s.arcs) == 0 {
		if s.Source == s.Target {
			return []V{s.Source}
		}
		return nil
	}
	out := make([]V, 0, 2*len(s.arcs))
	for _, a := range s.arcs {
		out = append(out, a.From, a.To)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Equal reports whether two directed SPGs describe the same answer.
// Unlike the undirected case, the pair is ordered.
func (s *DiSPG) Equal(t *DiSPG) bool {
	if s.Dist != t.Dist || s.Source != t.Source || s.Target != t.Target {
		return false
	}
	a, b := s.Arcs(), t.Arcs()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Verify checks the defining property against the parent digraph g:
// arc x→y belongs to the answer iff d(u,x) + 1 + d(y,v) = d(u,v).
// distFromU is the forward distance array from Source; distToV the
// backward distance array to Target.
func (s *DiSPG) Verify(g *DiGraph, distFromU, distToV []int32) error {
	if s.Source == s.Target {
		if s.Dist != 0 || s.NumArcs() != 0 {
			return fmt.Errorf("dispg: trivial pair must be empty with dist 0")
		}
		return nil
	}
	want := distFromU[s.Target]
	if s.Dist != want {
		return fmt.Errorf("dispg: dist = %d, want %d", s.Dist, want)
	}
	if s.Dist == InfDist {
		if s.NumArcs() != 0 {
			return fmt.Errorf("dispg: disconnected pair must be empty")
		}
		return nil
	}
	onShortest := func(a Arc) bool {
		return distFromU[a.From] != InfDist && distToV[a.To] != InfDist &&
			distFromU[a.From]+1+distToV[a.To] == s.Dist
	}
	for _, a := range s.Arcs() {
		if !g.HasArc(a.From, a.To) {
			return fmt.Errorf("dispg: arc %d->%d not in graph", a.From, a.To)
		}
		if !onShortest(a) {
			return fmt.Errorf("dispg: arc %d->%d not on any shortest path", a.From, a.To)
		}
	}
	count := 0
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, w := range g.Out(u) {
			if onShortest(Arc{u, w}) {
				count++
			}
		}
	}
	if got := s.NumArcs(); got != count {
		return fmt.Errorf("dispg: has %d arcs, want %d", got, count)
	}
	return nil
}

// String renders a compact description.
func (s *DiSPG) String() string {
	var b strings.Builder
	if s.Dist == InfDist {
		fmt.Fprintf(&b, "DiSPG(%d,%d) dist=inf {}", s.Source, s.Target)
		return b.String()
	}
	fmt.Fprintf(&b, "DiSPG(%d,%d) dist=%d {", s.Source, s.Target, s.Dist)
	for i, a := range s.Arcs() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d>%d", a.From, a.To)
	}
	b.WriteString("}")
	return b.String()
}
