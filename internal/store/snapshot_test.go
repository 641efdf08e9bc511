package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
)

// One corruption suite over both snapshot schemas: truncations, flipped
// bits and bad CRCs must come back as errors (or, for bytes outside any
// checksummed region, as a load equal to the pristine one) — never as a
// panic or an attacker-sized allocation. The two decoders share the
// container reader, so a fuzz seed for one exercises both.

// v3Fixture and v5Fixture are the fixed indexes behind the pristine
// images, the byte-for-byte pins and testdata/parent-v*.qbss.
func v3Fixture(t testing.TB) *dynamic.Index {
	t.Helper()
	d := newDynamic(t, graph.BarabasiAlbert(48, 2, 3), 5)
	applyOps(t, d, 6, 11)
	return d
}

func v5Fixture(t testing.TB) (*graph.DiGraph, *core.Index) {
	t.Helper()
	g := graph.DirectedScaleFree(60, 2, 61)
	ix, err := core.BuildDirected(g, core.Options{NumLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	return g, ix
}

// snapshotKind is one schema under the suite: how to write its fixture
// and a decoder that renders whatever it accepts, so two accepted images
// can be compared for state.
type snapshotKind struct {
	name   string
	sc     *schema
	write  func(t testing.TB, dir string) (file string)
	decode func(data []byte) (state string, err error)
}

var snapshotKinds = []snapshotKind{
	{
		name: "v3", sc: &schemaV3,
		write: func(t testing.TB, dir string) string {
			name, err := writeSnapshotFile(dir, v3Fixture(t).Persistent())
			if err != nil {
				t.Fatal(err)
			}
			return name
		},
		decode: func(data []byte) (string, error) {
			ls, err := decodeSnapshot(data)
			if err != nil {
				return "", err
			}
			// Whatever was accepted must at least be self-consistent enough
			// to restore.
			if len(ls.labels) != len(ls.landmarks) || len(ls.dists) != len(ls.landmarks) {
				panic("accepted inconsistent snapshot")
			}
			off, adj := ls.g.CSR()
			return fmt.Sprint(ls.epoch, off, adj, ls.landmarks, ls.sigma, ls.labels, ls.dists, ls.delta), nil
		},
	},
	{
		name: "v5", sc: &schemaV5,
		write: func(t testing.TB, dir string) string {
			g, ix := v5Fixture(t)
			if err := CreateDi(dir, g, ix.State()); err != nil {
				t.Fatal(err)
			}
			return diSnapshotName
		},
		decode: func(data []byte) (string, error) {
			ix, g, err := decodeDiSnapshot(data)
			if err != nil {
				return "", err
			}
			outOff, out, inOff, in := g.CSR()
			return fmt.Sprint(outOff, out, inOff, in, ix.State()), nil
		},
	},
}

func (k snapshotKind) pristine(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join(dir, k.write(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func FuzzSnapshotDecode(f *testing.F) {
	for _, k := range snapshotKinds {
		data := k.pristine(f)
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add([]byte(k.sc.magic))
		long := bytes.Clone(data)
		binary.LittleEndian.PutUint64(long[16:], 1<<40) // absurd vertex count
		f.Add(long)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, k := range snapshotKinds {
			_, _ = k.decode(b) // an error or a state, never a panic
		}
	})
}

// TestSnapshotBitFlips flips every byte of a pristine snapshot of each
// kind in turn. Each flip must either be rejected or (padding bytes,
// which no checksum covers and no decoder reads) load to the identical
// state.
func TestSnapshotBitFlips(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, k := range snapshotKinds {
		t.Run(k.name, func(t *testing.T) {
			data := k.pristine(t)
			orig, err := k.decode(bytes.Clone(data))
			if err != nil {
				t.Fatal(err)
			}
			accepted := 0
			for i := 0; i < len(data); i += stride {
				mut := bytes.Clone(data)
				mut[i] ^= 0x40
				state, err := k.decode(mut)
				if err != nil {
					continue
				}
				accepted++
				if state != orig {
					t.Fatalf("byte %d: corrupted snapshot accepted with different state", i)
				}
			}
			// Only alignment padding may flip unnoticed: under 8 bytes
			// before each section, plus (v3) the unused flags word.
			if limit := 8 * (k.sc.sections + 1); accepted > limit {
				t.Fatalf("%d of %d flips accepted, more than the %d bytes of padding", accepted, len(data), limit)
			}
		})
	}
}

// TestSnapshotTruncations truncates a pristine snapshot of each kind at
// every length (sampled): none may decode successfully, none may panic.
func TestSnapshotTruncations(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for _, k := range snapshotKinds {
		t.Run(k.name, func(t *testing.T) {
			data := k.pristine(t)
			for cut := 0; cut < len(data); cut += stride {
				if _, err := k.decode(data[:cut]); err == nil {
					t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(data))
				}
			}
		})
	}
}

// TestSnapshotBytesUnchanged makes "the bytes on disk do not change"
// executable: the SHA-256 of the v3 and v5 files of the two fixtures,
// recorded at the commit before the two encoders became one container
// writer, and the files that commit wrote, kept under testdata.
func TestSnapshotBytesUnchanged(t *testing.T) {
	for _, k := range snapshotKinds {
		want := map[string]string{
			"v3": "75bc74a5704d63d84c442398b762a8f0a7ce651cc72b5251ebcadda955e21532",
			"v5": "f44b4ee7914a0cc0addfa128dfd36429ea7d6be9199ab34ae3eef40eef8ff9df",
		}[k.name]
		data := k.pristine(t)
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: snapshot bytes changed: sha256 %s, want %s", k.name, got, want)
		}
		parent, err := os.ReadFile(filepath.Join("testdata", "parent-"+k.name+".qbss"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, parent) {
			t.Errorf("%s: snapshot differs from the parent-written testdata file", k.name)
		}
	}
}

// TestParentWrittenSnapshotsOpen opens the file of each kind written by
// the parent commit through the store's own entry points and holds the
// recovered index to the oracle.
func TestParentWrittenSnapshotsOpen(t *testing.T) {
	place := func(src, name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", src))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	pairs := func(n int) [][2]graph.V {
		rng := rand.New(rand.NewSource(5))
		ps := make([][2]graph.V, 60)
		for i := range ps {
			ps[i] = [2]graph.V{graph.V(rng.Intn(n)), graph.V(rng.Intn(n))}
		}
		return ps
	}

	want := v3Fixture(t)
	st, err := Open(place("parent-v3.qbss", snapshotFileName(6)), Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("parent-written v3 snapshot: %v", err)
	}
	if got := st.Index(); got.Epoch() != 6 || got.NumEdges() != want.NumEdges() {
		t.Fatalf("v3: recovered epoch %d with %d edges, want 6 with %d", got.Epoch(), got.NumEdges(), want.NumEdges())
	}
	for _, p := range pairs(want.NumVertices()) {
		if got := st.Index().Query(p[0], p[1]); got.Directed() || !got.Equal(want.Query(p[0], p[1])) {
			t.Fatalf("v3: recovered index answers (%d,%d) with %v", p[0], p[1], got)
		}
	}

	ix, g, err := OpenDi(place("parent-v5.qbss", diSnapshotName), false)
	if err != nil {
		t.Fatalf("parent-written v5 snapshot: %v", err)
	}
	sr := core.NewSearcher(ix)
	for _, p := range pairs(g.NumVertices()) {
		if got := sr.Query(p[0], p[1]); !got.Directed() || !got.Equal(bfs.OracleDiSPG(g, p[0], p[1])) {
			t.Fatalf("v5: recovered index answers (%d→%d) with %v", p[0], p[1], got)
		}
	}
}
