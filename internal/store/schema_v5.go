package store

import (
	"fmt"
	"os"

	"qbs/internal/core"
	"qbs/internal/graph"
)

// Snapshot format v5: a directed index. It is immutable (no dynamic
// subsystem, hence no WAL), so the one file — dual CSR, landmark set,
// directed σ, both label matrices, Δ — is its whole durable home. See
// doc.go for the layout and the v3 compatibility rule.

// flagDirected marks a snapshot as the directed flavor in the flags
// word.
const flagDirected = uint32(1)

// Version 5 has its label sections column-major, like v3's, so the
// index adopts each landmark's column as a view (version 4 stored them
// row-major, which the one engine no longer reads).
var schemaV5 = schema{
	magic: "QBS4", version: 5, sections: 10, flags: flagDirected,
	name: "directed snapshot", opener: "OpenDiStore",
}

// v5 section kinds, in their fixed file order.
const (
	diSecOutOffsets = 1 + iota
	diSecOutAdj
	diSecInOffsets
	diSecInAdj
	diSecLandmarks
	diSecSigma
	diSecLabelFrom
	diSecLabelTo
	diSecDeltaCounts
	diSecDeltaArcs
)

// encodeDiSnapshot writes the directed image of an index with state ps
// over g. The epoch is 0: directed stores are immutable.
func encodeDiSnapshot(f *os.File, g *graph.Graph, ps core.State) error {
	outOff, out, inOff, in := g.CSR()
	counts, arcs := deltaSections(ps.Delta)
	return schemaV5.encode(f,
		header{n: g.NumVertices(), arcs: int64(g.NumArcs()), landmarks: len(ps.Landmarks)},
		i64Section(outOff), i32Section(out), i64Section(inOff), i32Section(in),
		i32Section(ps.Landmarks), byteSection(ps.Sigma),
		byteColumns(ps.LabelFrom), byteColumns(ps.LabelTo), counts, arcs)
}

// decodeDiSnapshot validates a directed image and assembles the index,
// and the digraph under it, over typed views into data.
func decodeDiSnapshot(data []byte) (*core.Index, *graph.Graph, error) {
	h, secs, err := schemaV5.decode(data)
	if err != nil {
		return nil, nil, err
	}
	n, R := h.n, h.landmarks
	outOffSec, err := secs.sized(diSecOutOffsets, int64(n+1)*8)
	if err != nil {
		return nil, nil, err
	}
	outAdjSec, err := secs.sized(diSecOutAdj, h.arcs*4)
	if err != nil {
		return nil, nil, err
	}
	inOffSec, err := secs.sized(diSecInOffsets, int64(n+1)*8)
	if err != nil {
		return nil, nil, err
	}
	inAdjSec, err := secs.sized(diSecInAdj, h.arcs*4)
	if err != nil {
		return nil, nil, err
	}
	landSec, err := secs.sized(diSecLandmarks, int64(R)*4)
	if err != nil {
		return nil, nil, err
	}
	sigma, err := secs.sized(diSecSigma, int64(R)*int64(R))
	if err != nil {
		return nil, nil, err
	}
	labFromSec, err := secs.sized(diSecLabelFrom, int64(n)*int64(R))
	if err != nil {
		return nil, nil, err
	}
	labToSec, err := secs.sized(diSecLabelTo, int64(n)*int64(R))
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.FromCSR(viewI64(outOffSec), viewI32(outAdjSec), viewI64(inOffSec), viewI32(inAdjSec))
	if err != nil {
		return nil, nil, err
	}
	numMeta, err := checkSigma(sigma, R, false)
	if err != nil {
		return nil, nil, err
	}
	delta, err := secs.delta(diSecDeltaCounts, numMeta, n, true)
	if err != nil {
		return nil, nil, err
	}

	// Label invariants: landmarks carry no entries, non-landmark entries
	// are depths in [1, 254]. One worker per column of either labelling.
	landmarks := viewI32(landSec)
	labelFrom, labelTo := columns(labFromSec, R, n), columns(labToSec, R, n)
	if err := checkLandmarkRows(landmarks, n, labelFrom, labelTo); err != nil {
		return nil, nil, err
	}
	if err := parallelErr(2*R, func(c int) error {
		name, col := "labelFrom", labelFrom[c%R]
		if c >= R {
			name, col = "labelTo", labelTo[c%R]
		}
		for v, l := range col {
			if l == 0 {
				return fmt.Errorf("zero %s depth at vertex %d", name, v)
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	ix, err := core.AssembleDirected(g, core.State{
		Landmarks: landmarks,
		Sigma:     sigma,
		LabelTo:   labelTo,
		LabelFrom: labelFrom,
		Delta:     delta,
	})
	return ix, g, err
}
