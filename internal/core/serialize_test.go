package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

func TestIndexRoundTrip(t *testing.T) {
	g := connected(graph.BarabasiAlbert(300, 3, 31))
	orig := MustBuild(g, Options{NumLandmarks: 12})
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical core state.
	if loaded.numLand != orig.numLand {
		t.Fatal("landmark count changed")
	}
	for i := range orig.landmarks {
		if loaded.landmarks[i] != orig.landmarks[i] {
			t.Fatal("landmarks changed")
		}
	}
	for i := range orig.labelTo {
		for v := range orig.labelTo[i] {
			if loaded.labelTo[i][v] != orig.labelTo[i][v] {
				t.Fatal("labels changed")
			}
		}
	}
	for i := range orig.ms.sigma {
		if loaded.ms.sigma[i] != orig.ms.sigma[i] {
			t.Fatal("meta σ changed")
		}
	}
	for i := range orig.ms.distM {
		if loaded.ms.distM[i] != orig.ms.distM[i] {
			t.Fatal("APSP changed")
		}
	}
	if loaded.build.DeltaEdges != orig.build.DeltaEdges {
		t.Fatalf("Δ edges: %d vs %d", loaded.build.DeltaEdges, orig.build.DeltaEdges)
	}
	// Identical answers.
	sa, sb := NewSearcher(orig), NewSearcher(loaded)
	for _, p := range samplePairs(g, 80, 3) {
		a, b := sa.Query(p[0], p[1]), sb.Query(p[0], p[1])
		if !a.Equal(b) {
			t.Fatalf("loaded index answers differ for %v", p)
		}
		if !a.Equal(bfs.OracleSPG(g, p[0], p[1])) {
			t.Fatalf("loaded index wrong for %v", p)
		}
	}
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	g := connected(graph.ErdosRenyi(100, 220, 7))
	ix := MustBuild(g, Options{NumLandmarks: 5})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	other := graph.Path(50)
	if _, err := Load(other, &buf); err == nil {
		t.Fatal("index loaded against a different graph")
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	g := graph.Cycle(20)
	ix := MustBuild(g, Options{NumLandmarks: 4})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Load(g, bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	short := data[:len(data)-4]
	if _, err := Load(g, bytes.NewReader(short)); err == nil {
		t.Fatal("truncated index accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := connected(graph.WattsStrogatz(80, 4, 0.2, 5))
	ix := MustBuild(g, Options{NumLandmarks: 6})
	path := t.TempDir() + "/index.qbsi"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(g, path)
	if err != nil {
		t.Fatal(err)
	}
	sr := NewSearcher(loaded)
	for _, p := range samplePairs(g, 40, 9) {
		if !sr.Query(p[0], p[1]).Equal(bfs.OracleSPG(g, p[0], p[1])) {
			t.Fatalf("file round trip wrong for %v", p)
		}
	}
}

// TestSaveFileIsAtomic: a save goes through a temporary file beside the
// target and a rename, so one that fails — at the write, or at the
// rename — leaves the target as it was (absent, or the previous index)
// and nothing beside it; `qbs-server -index f` may then find f present
// only when it is whole.
func TestSaveFileIsAtomic(t *testing.T) {
	g := connected(graph.WattsStrogatz(80, 4, 0.2, 5))
	ix := MustBuild(g, Options{NumLandmarks: 6})
	dir := t.TempDir()
	path := filepath.Join(dir, "index.qbsi")
	names := func() string {
		var ns []string
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			ns = append(ns, e.Name())
		}
		return strings.Join(ns, " ")
	}

	// The write fails (the file format holds an undirected index only).
	dix, err := BuildDirected(graph.AsDirected(g), Options{NumLandmarks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := dix.SaveFile(path); err == nil {
		t.Fatal("a directed index was saved in the undirected format")
	}
	if got := names(); got != "" {
		t.Fatalf("a failed save left %q behind", got)
	}

	// A save killed half-way: all it can leave is a partial temporary
	// file under a name of its own. The target is still absent — the
	// server's "present, so load it" test fails as it should — and the
	// next save is not in its way.
	var whole bytes.Buffer
	if err := ix.Write(&whole); err != nil {
		t.Fatal(err)
	}
	stale := path + ".1234.tmp"
	if err := os.WriteFile(stale, whole.Bytes()[:whole.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(g, path); !os.IsNotExist(err) {
		t.Fatalf("after an interrupted save LoadFile(path) = %v, want not-exist", err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got := names(); got != "index.qbsi index.qbsi.1234.tmp" {
		t.Fatalf("a save beside a stale temporary file left %q", got)
	}
	if err := os.Remove(stale); err != nil {
		t.Fatal(err)
	}

	// The first save, then a failed one over it: the first one stays.
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dix.SaveFile(path); err == nil {
		t.Fatal("a directed index was saved in the undirected format")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) || names() != "index.qbsi" {
		t.Fatalf("a failed save over an index changed it (err %v, directory now %q)", err, names())
	}
	// A save over it replaces it whole.
	if err := MustBuild(g, Options{NumLandmarks: 3}).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if re, err := LoadFile(g, path); err != nil || re.NumLandmarks() != 3 || names() != "index.qbsi" {
		t.Fatalf("saving over an index: err %v, directory now %q", err, names())
	}

	// Concurrent saves to one path write a temporary file each: whichever
	// rename lands last, the file is one of the two indexes, whole.
	other := MustBuild(g, Options{NumLandmarks: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(ix *Index) {
			defer wg.Done()
			if err := ix.SaveFile(path); err != nil {
				t.Error(err)
			}
		}([]*Index{ix, other}[i%2])
	}
	wg.Wait()
	if _, err := LoadFile(g, path); err != nil || names() != "index.qbsi" {
		t.Fatalf("concurrent saves: err %v, directory now %q", err, names())
	}

	// The rename fails (the target is a non-empty directory): the
	// temporary file goes, the target stays.
	if err := os.MkdirAll(filepath.Join(dir, "taken", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(filepath.Join(dir, "taken")); err == nil {
		t.Fatal("saved over a directory")
	}
	if got := names(); got != "index.qbsi taken" {
		t.Fatalf("a failed rename left %q", got)
	}
}

// TestLoadTruncatedAtEverySectionBoundary cuts a saved index one byte
// before, at, and one byte after the end of every section — magic, the
// four header words, the landmark list, σ, each label column — which is
// what a save killed half-way used to leave at the path. Load must
// refuse every one of them with an error, and never panic.
func TestLoadTruncatedAtEverySectionBoundary(t *testing.T) {
	g := connected(graph.BarabasiAlbert(120, 2, 3))
	ix := MustBuild(g, Options{NumLandmarks: 5})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n, R := g.NumVertices(), ix.NumLandmarks()
	bounds := []int{0, 4, 12, 20, 28, 36, 36 + 4*R, 36 + 4*R + R*R}
	for c := 1; c <= R; c++ {
		bounds = append(bounds, 36+4*R+R*R+c*n)
	}
	if last := bounds[len(bounds)-1]; last != len(data) {
		t.Fatalf("the format has moved: sections end at %d, the file at %d", last, len(data))
	}
	for _, b := range bounds {
		for _, cut := range []int{b - 1, b, b + 1} {
			if cut < 0 || cut >= len(data) {
				continue
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Load panicked on the first %d of %d bytes: %v", cut, len(data), p)
					}
				}()
				if _, err := Load(g, bytes.NewReader(data[:cut])); err == nil {
					t.Fatalf("Load accepted the first %d of %d bytes", cut, len(data))
				}
			}()
		}
	}
}
