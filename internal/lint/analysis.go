package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Analyzer is one project-invariant check. Unlike
// golang.org/x/tools/go/analysis (which this API deliberately mirrors
// in spirit), an analyzer runs once over the whole Program rather than
// per package: the qbs invariants — transitive zero-alloc call trees,
// fields that must be atomic everywhere — are module-global properties.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Diagnostic
}

// report appends a diagnostic for node unless a //qbs:allow directive
// suppresses it.
func (p *Program) report(ds []Diagnostic, name string, node ast.Node, msg string) []Diagnostic {
	d := Diagnostic{Pos: p.Fset.Position(node.Pos()), Analyzer: name, Message: msg}
	if p.Annots().suppressed(d) {
		return ds
	}
	return append(ds, d)
}

// FuncInfo is the directive and declaration record of one function.
type FuncInfo struct {
	Key  string // declaration position (identity across test variants)
	Name string // qualified display name, e.g. "(*core.Searcher).QueryInto"
	Decl *ast.FuncDecl
	Pkg  *Package

	ZeroAlloc bool // //qbs:zeroalloc
	HotPath   bool // //qbs:hotpath
	Publish   bool // //qbs:publish

	// Allowed records function-level //qbs:allow directives by analyzer
	// name. Beyond suppressing findings inside the function, zeroalloc
	// treats an allowed function as a call-tree boundary: a sanctioned
	// cold path (pool refill, epoch rebind) is not descended into.
	Allowed map[string]allowRule
}

// Obj returns the function's types.Func.
func (fi *FuncInfo) Obj() *types.Func {
	if o, ok := fi.Pkg.Info.Defs[fi.Decl.Name].(*types.Func); ok {
		return o
	}
	return nil
}

// posKey renders a stable identity for an object position. Base
// packages and their test variants type-check the same files into
// distinct object universes; the declaration position is the identity
// that survives.
func (p *Program) posKey(pos token.Pos) string {
	return p.Fset.Position(pos).String()
}

// funcKey resolves a called object to a function-index key, or "".
func (p *Program) funcKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || !fn.Pos().IsValid() {
		return ""
	}
	return p.posKey(fn.Pos())
}

// trimPath makes a file path relative to the module root for display.
func trimPath(file, modDir string) string {
	if modDir != "" && strings.HasPrefix(file, modDir) {
		return strings.TrimPrefix(strings.TrimPrefix(file, modDir), "/")
	}
	return file
}

// EnclosingFunc returns the FuncInfo whose body contains pos, or nil.
func (p *Program) EnclosingFunc(pkg *Package, pos token.Pos) *FuncInfo {
	for _, fi := range p.Annots().funcList {
		if fi.Pkg == pkg && fi.Decl.Pos() <= pos && pos <= fi.Decl.End() {
			return fi
		}
	}
	// Fall back across packages (test variants share files).
	ppos := p.Fset.Position(pos)
	for _, fi := range p.Annots().funcList {
		fp, fe := p.Fset.Position(fi.Decl.Pos()), p.Fset.Position(fi.Decl.End())
		if fp.Filename == ppos.Filename && fp.Offset <= ppos.Offset && ppos.Offset <= fe.Offset {
			return fi
		}
	}
	return nil
}
