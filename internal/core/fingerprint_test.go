package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/datasets"
	"qbs/internal/graph"
)

// Layout-independent fingerprints of an index and its answers, recorded
// at commit fa0302d — the last one with two engines — from internal/core
// on the YT analog and from its directed twin, package dcore, on the WK
// analog, before either was touched. Every hash is over a stream of little-endian int32s in an
// order fixed by the mathematics, not by storage: labels by (vertex,
// rank), σ row-major after the landmark set, Δ per meta-edge in (a, b)
// order as sorted pairs, query answers as their canonical pair sets. The
// one engine must reproduce all of them: dcore stored labels row-major
// and Δ unsorted, this index stores columns and sorted lists, and the
// answers are the same.

const (
	fingerprintScale   = 0.25
	fingerprintQueries = 500
	fingerprintSeed    = 14
)

type indexFingerprint struct{ labelTo, labelFrom, sigma, delta, queries string }

var (
	fingerprintYT = indexFingerprint{ // core.Build, n=10000 arcs=41964 R=20 meta=172
		labelTo:   "560763077c0e44d33fced19af145df48e7f534ef7ffac1b48a25c2b7ada31ef4",
		labelFrom: "560763077c0e44d33fced19af145df48e7f534ef7ffac1b48a25c2b7ada31ef4",
		sigma:     "9df36c74310db820028433ca27e927e430356a27595cb4fe5ed71e097b5bfc3b",
		delta:     "cf3976717480ee5c91c34a5a62ce4facd2c9b321041c98b90d1f8b93f62df746",
		queries:   "6d67ddc144df371c1a3b185bf2dfe1979d2289b8d8c20623a26eae5453d9262b",
	}
	fingerprintWK = indexFingerprint{ // dcore.Build, n=11250 arcs=22492 R=20 meta=217
		labelTo:   "bb70be5fef7b0c4360216b7e484a4dcfb69935a8a924f4fdea3696029f88e71a",
		labelFrom: "aca15147e88b654fe42e928c85735b6052a035d326e4500e6a0b028d85af01c2",
		sigma:     "1b752c21c122d7bcc172e3018a8854bb63c3488983ec81be4cf250dda1d3722a",
		delta:     "05f1d5b43a8a2e82121d407b253dff17ab0db65982b57ac10d6d64abf82c8127",
		queries:   "f49ab4a4fab5c1408b49507dab7bb6266df2f9ebb97ceea28bda152eddbe2c6e",
	}
)

type fingerprint struct {
	h   hash.Hash
	buf [4]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) put(vs ...int32) {
	for _, v := range vs {
		binary.LittleEndian.PutUint32(f.buf[:], uint32(v))
		f.h.Write(f.buf[:])
	}
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// fpLabels hashes one labelling iterated (vertex, rank).
func fpLabels(n int, labels [][]uint8) string {
	f := newFingerprint()
	f.put(int32(n), int32(len(labels)))
	for v := 0; v < n; v++ {
		for i := range labels {
			f.put(int32(labels[i][v]))
		}
	}
	return f.sum()
}

// fpSigma hashes the landmark set and σ row-major.
func fpSigma(landmarks []graph.V, sigma []uint8) string {
	f := newFingerprint()
	f.put(int32(len(landmarks)))
	f.put(landmarks...)
	for _, s := range sigma {
		f.put(int32(s))
	}
	return f.sum()
}

// fpDelta hashes Δ: per meta-edge, in order, its endpoints' ranks, its
// weight and its sorted pair list.
func fpDelta(ix *Index) string {
	f := newFingerprint()
	f.put(int32(len(ix.ms.meta)))
	for k, e := range ix.ms.meta {
		pairs := slices.Clone(ix.delta[k])
		slices.SortFunc(pairs, func(x, y graph.Edge) int { return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.W, y.W)) })
		f.put(int32(e.a), int32(e.b), e.weight, int32(len(pairs)))
		for _, p := range pairs {
			f.put(p.U, p.W)
		}
	}
	return f.sum()
}

// fpQueries hashes the answers to the seeded query set: per pair its
// endpoints, distance and canonical pair set.
func fpQueries(n int, answer func(u, v graph.V) (dist int32, pairs [][2]int32)) string {
	f := newFingerprint()
	rng := rand.New(rand.NewSource(fingerprintSeed))
	for i := 0; i < fingerprintQueries; i++ {
		u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
		dist, pairs := answer(u, v)
		f.put(u, v, dist, int32(len(pairs)))
		for _, p := range pairs {
			f.put(p[0], p[1])
		}
	}
	return f.sum()
}

func fingerprintOf(tg testGraph, ix *Index) indexFingerprint {
	n := tg.numVertices()
	sr := NewSearcher(ix)
	spg := new(graph.SPG)
	return indexFingerprint{
		labelTo:   fpLabels(n, ix.labelTo),
		labelFrom: fpLabels(n, ix.labelFrom),
		sigma:     fpSigma(ix.landmarks, ix.ms.sigma),
		delta:     fpDelta(ix),
		queries: fpQueries(n, func(u, v graph.V) (int32, [][2]int32) {
			var pairs [][2]int32
			sr.QueryInto(spg, u, v)
			for _, e := range spg.Edges() {
				pairs = append(pairs, [2]int32{e.U, e.W})
			}
			return spg.Dist, pairs
		}),
	}
}

// TestParentFingerprints is the bit-identical proof of the merge: the
// one engine reproduces what core computed on YT and what dcore computed
// on WK, at every build width.
func TestParentFingerprints(t *testing.T) {
	yt, err := datasets.ByKey("YT")
	if err != nil {
		t.Fatal(err)
	}
	wk, err := datasets.ByKey("WK")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tg   testGraph
		want indexFingerprint
	}{
		{"YT", undirected(yt.Generate(fingerprintScale)), fingerprintYT},
		{"WK", directed(wk.GenerateDirected(fingerprintScale)), fingerprintWK},
	} {
		for _, par := range []int{1, 4} {
			ix := tc.tg.mustBuild(t, Options{Parallelism: par})
			if got := fingerprintOf(tc.tg, ix); got != tc.want {
				t.Errorf("%s parallelism=%d:\n got %+v\nwant %+v", tc.name, par, got, tc.want)
			}
		}
	}
}

// Work counters over the same seeded pairs — and over the FR analog, whose
// uncovered pairs end on the largest levels: the sum of
// QueryStats.ArcsScanned over the answers (it is in the /spg body), the
// same with extraction off (what Distance runs: the kernel returns at its
// first crossing arc) and the sum of the Bi-BFS baseline's
// SearchStats.ArcsScanned. The Bi-BFS sums were recorded at commit
// f535a26, the last one whose expansion kernel scanned and marked a level
// in one sweep; a kernel that reads memory in another order must still
// examine exactly these adjacency entries. The query and distance sums
// were recorded again at commit db32f0f, when the guided search took
// Bi-BFS's side rule — grow the smaller visited set, stop when either
// frontier is empty — in place of the sketch's per-side bounds d*: the
// same answers, fewer arcs. They were recorded a third time when a
// distance search's bound became d⊤−1 and the level at a search's bound
// stopped being built (it is only tested for a meeting): the distance
// sums fell because a distance search stops one level short of d⊤, and
// the query sums moved because recover now attaches at the last level
// the search completed, where its label walk takes the hop that
// extraction took from one level out. Bi-BFS's sums did not move.
// The query and Bi-BFS sums were recorded a fourth time when a step of
// the reverse extraction (bfs.Extractor, shared by both searches) began
// to scan the rows of the level below instead of the reverse rows of the
// vertices it extracts whenever that level is no larger: the same arcs
// are emitted from fewer rows. The distance sums did not move, since
// Distance extracts nothing, and neither did FR's: its answers' levels
// below are larger than the vertices extracted from them at this scale.
// The query sums were recorded a fifth time when recover stopped reading
// the search's levels: each side's part of G^L became the label walk from
// the endpoint itself, with no extraction back to it from the level the
// search completed. The answers are the same, read by another walk; the
// distance and Bi-BFS sums did not move.
type arcsScanned struct{ query, distance, biBFS int64 }

var (
	arcsScannedYT = arcsScanned{query: 98465, distance: 31855, biBFS: 317897}
	arcsScannedWK = arcsScanned{query: 52969, distance: 23449, biBFS: 201971}
	arcsScannedFR = arcsScanned{query: 1187101, distance: 175279, biBFS: 1188778}
)

func arcsScannedOf(tg testGraph, ix *Index) arcsScanned {
	n := tg.numVertices()
	sr := NewSearcher(ix)
	var bi *bfs.Bidirectional
	if tg.dir != nil {
		bi = bfs.NewBidirectional(tg.dir)
	} else {
		bi = bfs.NewBidirectional(tg.und)
	}
	var got arcsScanned
	spg := new(graph.SPG)
	for _, p := range randomPairs(n, fingerprintQueries, fingerprintSeed) { // fpQueries' stream
		u, v := p[0], p[1]
		got.query += sr.QueryInto(spg, u, v).ArcsScanned
		got.distance += sr.DistanceStats(u, v).ArcsScanned
		_, st := bi.Query(u, v)
		got.biBFS += st.ArcsScanned
	}
	return got
}

// TestParentArcsScanned holds the work counters to the parent's, the way
// TestParentFingerprints holds the answers.
func TestParentArcsScanned(t *testing.T) {
	for _, tc := range []struct {
		key      string
		directed bool
		want     arcsScanned
	}{
		{"YT", false, arcsScannedYT},
		{"WK", true, arcsScannedWK},
		{"FR", false, arcsScannedFR},
	} {
		spec, err := datasets.ByKey(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		tg := undirected(spec.Generate(fingerprintScale))
		if tc.directed {
			tg = directed(spec.GenerateDirected(fingerprintScale))
		}
		if got := arcsScannedOf(tg, tg.mustBuild(t, Options{})); got != tc.want {
			t.Errorf("%s: arcs scanned %+v, want %+v", tc.key, got, tc.want)
		}
	}
}
