package core

import (
	"bytes"
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
