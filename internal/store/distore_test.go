package store

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/graph"
)

func diTestIndex(t *testing.T) (*graph.DiGraph, *core.Index) {
	t.Helper()
	g := graph.DirectedScaleFree(400, 3, 61)
	ix, err := core.BuildDirected(g, core.Options{NumLandmarks: 12})
	if err != nil {
		t.Fatal(err)
	}
	return g, ix
}

// TestDiStoreRoundTrip is the PR 4 acceptance criterion: a directed
// store round-trips bit-identically — labels, σ, Δ and both CSR halves —
// and the reopened index answers queries exactly like the original.
func TestDiStoreRoundTrip(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		name := "read"
		if mmap {
			name = "mmap"
		}
		t.Run(name, func(t *testing.T) {
			g, ix := diTestIndex(t)
			dir := t.TempDir()
			if err := CreateDi(dir, g, ix.State()); err != nil {
				t.Fatal(err)
			}
			if !DiExists(dir) {
				t.Fatal("DiExists false after CreateDi")
			}
			re, rg, err := OpenDi(dir, mmap)
			if err != nil {
				t.Fatal(err)
			}

			a, b := ix.State(), re.State()
			if string(a.Sigma) != string(b.Sigma) {
				t.Fatal("sigma not bit-identical")
			}
			if !reflect.DeepEqual(a.LabelFrom, b.LabelFrom) || !reflect.DeepEqual(a.LabelTo, b.LabelTo) {
				t.Fatal("labels not bit-identical")
			}
			ao1, aa1, ai1, av1 := g.CSR()
			bo1, ba1, bi1, bv1 := rg.CSR()
			for i := range ao1 {
				if ao1[i] != bo1[i] || ai1[i] != bi1[i] {
					t.Fatal("CSR offsets not bit-identical")
				}
			}
			for i := range aa1 {
				if aa1[i] != ba1[i] || av1[i] != bv1[i] {
					t.Fatal("CSR adjacency not bit-identical")
				}
			}
			if len(a.Delta) != len(b.Delta) {
				t.Fatalf("delta lists: %d vs %d", len(a.Delta), len(b.Delta))
			}
			for k := range a.Delta {
				if len(a.Delta[k]) != len(b.Delta[k]) {
					t.Fatalf("delta[%d] length differs", k)
				}
				for i := range a.Delta[k] {
					if a.Delta[k][i] != b.Delta[k][i] {
						t.Fatalf("delta[%d][%d] differs", k, i)
					}
				}
			}

			sr := core.NewSearcher(re)
			got := new(graph.SPG)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 80; i++ {
				u := graph.V(rng.Intn(g.NumVertices()))
				v := graph.V(rng.Intn(g.NumVertices()))
				want := bfs.OracleDiSPG(g, u, v)
				if sr.QueryInto(got, u, v); !got.Equal(want) {
					t.Fatalf("reopened index: query (%d,%d) != oracle", u, v)
				}
			}
		})
	}
}

func TestDiStoreCreateTwiceFails(t *testing.T) {
	g, ix := diTestIndex(t)
	dir := t.TempDir()
	if err := CreateDi(dir, g, ix.State()); err != nil {
		t.Fatal(err)
	}
	if err := CreateDi(dir, g, ix.State()); err == nil {
		t.Fatal("second CreateDi succeeded")
	}
}

// TestOneStorePerDataDir: a data directory is the home of one index
// over one graph. Creating a store of either kind in a directory that
// holds one of the other is refused by name, with the flag that opens
// what is there, and leaves the directory as it was.
func TestOneStorePerDataDir(t *testing.T) {
	g, ix := diTestIndex(t)
	listing := func(dir string) string {
		var names []string
		_ = filepath.WalkDir(dir, func(p string, _ os.DirEntry, _ error) error {
			if rel, _ := filepath.Rel(dir, p); rel != lockFile {
				names = append(names, rel)
			}
			return nil
		})
		return strings.Join(names, " ")
	}

	dir := t.TempDir()
	if err := CreateDi(dir, g, ix.State()); err != nil {
		t.Fatal(err)
	}
	before := listing(dir)
	_, err := Create(dir, newDynamic(t, graph.Path(5), 2), Options{})
	if err == nil || !strings.Contains(err.Error(), "already contains a directed store; open it with -directed") {
		t.Fatalf("Create over a directed store: %v", err)
	}
	if after := listing(dir); after != before || Exists(dir) {
		t.Fatalf("refused Create changed the directory: %q -> %q", before, after)
	}
	if _, _, err := OpenDi(dir, false); err != nil {
		t.Fatalf("directed store no longer opens: %v", err)
	}

	udir := t.TempDir()
	writeUndirectedSnapshot(t, udir)
	before = listing(udir)
	err = CreateDi(udir, g, ix.State())
	if err == nil || !strings.Contains(err.Error(), "already contains an undirected store; open it without -directed") {
		t.Fatalf("CreateDi over an undirected store: %v", err)
	}
	if after := listing(udir); after != before || DiExists(udir) {
		t.Fatalf("refused CreateDi changed the directory: %q -> %q", before, after)
	}
	st, err := Open(udir, Options{})
	if err != nil {
		t.Fatalf("undirected store no longer opens: %v", err)
	}
	// CreateDi takes the writer lock: a live undirected writer excludes it
	// before it looks at anything.
	if err := CreateDi(udir, g, ix.State()); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("CreateDi beside a live writer: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossFormatErrors pins the error messages when a directed file is
// opened with the undirected loader and vice versa — a named redirect,
// not a checksum mismatch.
func TestCrossFormatErrors(t *testing.T) {
	g, ix := diTestIndex(t)
	dir := t.TempDir()
	if err := CreateDi(dir, g, ix.State()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, diSnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(data); err == nil || !strings.Contains(err.Error(), "OpenDiStore") {
		t.Fatalf("undirected decoder on a directed file: %v", err)
	}

	udir := t.TempDir()
	writeUndirectedSnapshot(t, udir)
	names, _ := filepath.Glob(filepath.Join(udir, "snapshot-*.qbss"))
	if len(names) == 0 {
		t.Fatal("no undirected snapshot written")
	}
	udata, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeDiSnapshot(udata); err == nil || !strings.Contains(err.Error(), "OpenStore") {
		t.Fatalf("directed decoder on v3 file: %v", err)
	}

	// A version-4 directed file (row-major labels) is refused by version,
	// before its checksums are even looked at.
	v4 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(v4[4:], 4)
	if _, _, err := decodeDiSnapshot(v4); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 4") {
		t.Fatalf("directed decoder on a v4 header: %v", err)
	}

	// The v3 compatibility rule: undirected snapshots keep magic "QBS3"
	// and version 3, and keep loading.
	if string(udata[:4]) != schemaV3.magic {
		t.Fatalf("undirected snapshot magic %q, want %q", udata[:4], schemaV3.magic)
	}
	if v := binary.LittleEndian.Uint32(udata[4:]); v != schemaV3.version {
		t.Fatalf("undirected snapshot version %d, want %d", v, schemaV3.version)
	}
	if _, err := decodeSnapshot(udata); err != nil {
		t.Fatalf("v3 snapshot no longer loads: %v", err)
	}
}

// writeUndirectedSnapshot persists a tiny undirected dynamic index into
// dir via the ordinary v3 store path.
func writeUndirectedSnapshot(t *testing.T, dir string) {
	t.Helper()
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}, {U: 3, W: 4}, {U: 0, W: 4},
	})
	d := newDynamic(t, g, 2)
	st, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
