package dynamic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"qbs/internal/datasets"
	"qbs/internal/workload"
)

// SHA-256 of everything the dynamic index persists — Persistent(): the
// graph's CSR arrays, the landmarks, σ, every distance and label column
// and every Δ list, in that order — recorded at commit 11a31fc, when the
// dynamic index still had its own full build (buildState: its own settle
// callback, σ fill and per-meta-edge column scans), and never
// regenerated since. Three states per analog at |R| = 20: as built,
// after 60 seeded edge updates, and after a synchronous Compact (which
// changes the epoch and the overlay but nothing that is persisted, so
// the last two are equal). The
// state is a function of the graph and the landmark set alone (Lemma
// 5.2), so the hashes may depend neither on the repair budget (1 sends
// every orphaning delete through the full column re-BFS, the default
// repairs in place) nor on the pool width.
var parentStates = map[string][3]string{
	"YT": {
		"e8e6464ad3b65f78eb890bf44610e2296b58de1fd0e098e3e65b3aeac2df94d6",
		"7a5b396200b12e03e3e846f8c57c43483a63f200695ab35744423886bb13df74",
		"7a5b396200b12e03e3e846f8c57c43483a63f200695ab35744423886bb13df74",
	},
	"FR": {
		"f998106c9b7fb8a32f138c037d5583063d30c2c216fa52aba705746624575499",
		"ff08ef1cc33a5112102e50a4e6f5185013e837d71334ebd97a98ff3e28e168f4",
		"ff08ef1cc33a5112102e50a4e6f5185013e837d71334ebd97a98ff3e28e168f4",
	},
}

var parentStateScales = map[string]float64{"YT": 0.5, "FR": 0.25}

func hashPersistent(ps PersistentState) string {
	h := sha256.New()
	put := func(a any) {
		if err := binary.Write(h, binary.LittleEndian, a); err != nil {
			panic(err)
		}
	}
	offsets, adj := ps.Graph.CSR()
	put(offsets)
	put(adj)
	put(ps.Landmarks)
	put(ps.Sigma)
	for _, col := range ps.Dists {
		put(col)
	}
	for _, col := range ps.Labels {
		put(col)
	}
	put(int64(len(ps.Delta)))
	for _, list := range ps.Delta {
		put(int64(len(list)))
		for _, e := range list {
			put([2]int32{e.U, e.W})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestDynamicStateFingerprints(t *testing.T) {
	for _, key := range []string{"YT", "FR"} {
		spec, err := datasets.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Generate(parentStateScales[key])
		lms := g.TopDegreeVertices(20)
		ops := workload.Mutations(g, 60, 33)
		want := parentStates[key]
		for _, par := range []int{1, 4} {
			for _, budget := range []int{1, 0} {
				name := fmt.Sprintf("%s parallelism=%d budget=%d", key, par, budget)
				d, err := New(g, lms, Options{RepairBudget: budget, CompactFraction: -1, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				check := func(stage int, when string) {
					ps := d.Persistent()
					if got := hashPersistent(ps); got != want[stage] {
						t.Errorf("%s, %s (epoch %d): got %s", name, when, ps.Epoch, got)
					}
				}
				check(0, "as built")
				for i, op := range ops {
					if _, err := d.ApplyEdge(op.U, op.V, op.Kind == workload.OpInsert); err != nil {
						t.Fatalf("%s: op %d: %v", name, i, err)
					}
				}
				// Dense FR never orphans a vertex; on YT the stream must change
				// σ, dirty a Δ list and, at budget 1 only, reach the full
				// column re-BFS.
				st := d.Stats()
				if st.Epoch != uint64(len(ops)) || (key == "YT" && (st.MetaRebuilds == 0 || st.DeltaRecomputes == 0 || (budget == 1) != (st.ColumnsRebuilt > 0))) {
					t.Fatalf("%s: the update stream did not exercise what it pins: %+v", name, st)
				}
				check(1, "after 60 updates")
				if err := d.Compact(); err != nil {
					t.Fatal(err)
				}
				check(2, "after Compact")
			}
		}
	}
}
