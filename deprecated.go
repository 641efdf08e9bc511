package qbs

import (
	"qbs/internal/graph"
)

// The names below are the directed API from before an undirected graph
// became the symmetric case of one Graph type. The frozen benchmark/
// compiles against them; nothing else in this module uses them.

// Deprecated: kept for benchmark/, which this round may not edit. Use Graph.
type DiGraph = Graph

// Deprecated: kept for benchmark/, which this round may not edit. Use Index.
type DiIndex = Index

// Deprecated: kept for benchmark/, which this round may not edit. Use Options.
type DiOptions = Options

// Deprecated: kept for benchmark/, which this round may not edit. Use SPG.
type DiSPG = SPG

// Deprecated: kept for benchmark/, which this round may not edit. Use BuildIndex.
func BuildDiIndex(g *Graph, opts Options) (*Index, error) { return BuildIndex(g, opts) }

// AsDirected returns g as a symmetric directed graph, sharing its arrays.
//
// Deprecated: kept for benchmark/, which this round may not edit.
func AsDirected(g *Graph) *Graph { return graph.AsDirected(g) }

// Deprecated: kept for benchmark/, which this round may not edit. Use OracleSPG.
func OracleDiSPG(g *Graph, u, v V) *SPG { return OracleSPG(g, u, v) }
