package store

import (
	"fmt"
	"os"

	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
)

// Snapshot format v3: one epoch of a dynamic (undirected) index. See
// doc.go for the layout. Decoding validates what the container cannot
// know — graph well-formedness, σ symmetry, label/distance consistency —
// and then hands out typed views into the arena.

var schemaV3 = schema{
	magic: "QBS3", version: 3, sections: 8,
	name: "undirected v3 snapshot", opener: "OpenStore",
}

// v3 section kinds, in their fixed file order.
const (
	secGraphOffsets = 1 + iota
	secGraphAdj
	secLandmarks
	secSigma
	secLabels
	secDists
	secDeltaCounts
	secDeltaEdges
)

// snapshotFileName is the canonical name of the snapshot at an epoch.
func snapshotFileName(epoch uint64) string {
	return fmt.Sprintf("snapshot-%016d.qbss", epoch)
}

// snapshotEpoch parses an epoch back out of a snapshot file name.
func snapshotEpoch(name string) (uint64, bool) {
	var e uint64
	if _, err := fmt.Sscanf(name, "snapshot-%d.qbss", &e); err != nil {
		return 0, false
	}
	return e, name == snapshotFileName(e)
}

// writeSnapshotFile serialises ps into dir atomically and returns the
// file's name.
func writeSnapshotFile(dir string, ps dynamic.PersistentState) (string, error) {
	name := snapshotFileName(ps.Epoch)
	return name, writeFileAtomic(dir, name, func(f *os.File) error {
		offsets, adj := ps.Graph.CSR()
		counts, edges := deltaSections(ps.Delta)
		return schemaV3.encode(f,
			header{epoch: ps.Epoch, n: ps.Graph.NumVertices(), arcs: int64(ps.Graph.NumArcs()), landmarks: len(ps.Landmarks)},
			i64Section(offsets), i32Section(adj), i32Section(ps.Landmarks), byteSection(ps.Sigma),
			byteColumns(ps.Labels), i32Columns(ps.Dists), counts, edges)
	})
}

// loadedSnapshot is a decoded snapshot: typed views plus the arena that
// backs them (kept referenced so a GC cannot reclaim it from under the
// views).
type loadedSnapshot struct {
	epoch     uint64
	g         *graph.Graph
	landmarks []graph.V
	sigma     []uint8
	labels    [][]uint8
	dists     [][]int32
	delta     [][]graph.Edge
	arena     *arena
}

func decodeSnapshot(data []byte) (*loadedSnapshot, error) {
	h, secs, err := schemaV3.decode(data)
	if err != nil {
		return nil, err
	}
	if h.arcs%2 != 0 {
		return nil, fmt.Errorf("implausible header (n=%d arcs=%d)", h.n, h.arcs)
	}
	n, R := h.n, h.landmarks
	offSec, err := secs.sized(secGraphOffsets, int64(n+1)*8)
	if err != nil {
		return nil, err
	}
	adjSec, err := secs.sized(secGraphAdj, h.arcs*4)
	if err != nil {
		return nil, err
	}
	landSec, err := secs.sized(secLandmarks, int64(R)*4)
	if err != nil {
		return nil, err
	}
	sigma, err := secs.sized(secSigma, int64(R)*int64(R))
	if err != nil {
		return nil, err
	}
	labSec, err := secs.sized(secLabels, int64(R)*int64(n))
	if err != nil {
		return nil, err
	}
	distSec, err := secs.sized(secDists, int64(R)*int64(n)*4)
	if err != nil {
		return nil, err
	}
	g, err := graph.FromCSR(viewI64(offSec), viewI32(adjSec))
	if err != nil {
		return nil, err
	}
	numMeta, err := checkSigma(sigma, R, true)
	if err != nil {
		return nil, err
	}
	delta, err := secs.delta(secDeltaCounts, numMeta, n, false)
	if err != nil {
		return nil, err
	}

	// Column views plus the label/distance consistency invariant: a
	// present label equals the distance, distances are byte-representable
	// or infinite. This keeps replayed repairs (which trust dist) from
	// operating on nonsense. One worker per landmark column.
	labels, dists := columns(labSec, R, n), columns(viewI32(distSec), R, n)
	if err := parallelErr(R, func(r int) error {
		lab, dist := labels[r], dists[r]
		for v := 0; v < n; v++ {
			dv := dist[v]
			if dv != graph.InfDist && (dv < 0 || dv > core.MaxLabelDist) {
				return fmt.Errorf("column %d distance %d unrepresentable", r, dv)
			}
			if l := lab[v]; l != core.NoEntry && int32(l) != dv {
				return fmt.Errorf("column %d label/distance mismatch at vertex %d", r, v)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &loadedSnapshot{
		epoch:     h.epoch,
		g:         g,
		landmarks: viewI32(landSec),
		sigma:     sigma,
		labels:    labels,
		dists:     dists,
		delta:     delta,
	}, nil
}
