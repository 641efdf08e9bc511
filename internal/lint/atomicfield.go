package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField enforces all-or-nothing atomicity: once any code accesses
// a struct field through sync/atomic, every access to that field must
// be atomic. Mixed plain/atomic access is a data race even when it
// "works" on amd64. The analyzer is cross-package (a field published
// atomically in internal/dynamic and read plainly in internal/replica
// is still a finding) and propagates one level through module helpers
// that take a *uint32/*uint64 parameter into sync/atomic calls (the
// traverse orUint64/claimUint32 idiom).
//
// Deliberately barrier-ordered mixed access (e.g. plain reads between
// two synchronization points) is suppressed with
// //qbs:allow atomicfield <reason>.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "fields accessed via sync/atomic anywhere must be accessed atomically everywhere",
	Run:  runAtomicField,
}

func runAtomicField(p *Program) []Diagnostic {
	ix := p.Annots()

	// Helper functions whose pointer parameters feed sync/atomic calls.
	helperParams := map[string]map[int]bool{} // funcKey → atomic param indices
	for _, fi := range ix.funcList {
		if fi.Decl.Body == nil {
			continue
		}
		paramIdx := map[types.Object]int{}
		i := 0
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
						paramIdx[obj] = i
					}
				}
				i++
			}
		}
		if len(paramIdx) == 0 {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(fi.Pkg, call) || len(call.Args) == 0 {
				return true
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if idx, ok := paramIdx[fi.Pkg.Info.Uses[id]]; ok {
					m := helperParams[fi.Key]
					if m == nil {
						m = map[int]bool{}
						helperParams[fi.Key] = m
					}
					m[idx] = true
				}
			}
			return true
		})
	}

	// Pass 1: collect atomically-accessed fields and remember which
	// selector nodes are those sanctioned accesses.
	atomicSite := map[string]token.Position{} // field key → example atomic site
	sanctioned := map[ast.Node]bool{}
	markArg := func(pkg *Package, arg ast.Expr) {
		un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			return
		}
		if v, sel := fieldVarOf(pkg, un.X); v != nil {
			key := p.posKey(v.Pos())
			if _, seen := atomicSite[key]; !seen {
				atomicSite[key] = p.Fset.Position(sel.Pos())
			}
			sanctioned[sel] = true
		}
	}
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isSyncAtomicCall(pkg, call) && len(call.Args) > 0 {
					markArg(pkg, call.Args[0])
					return true
				}
				if obj := calleeObject(pkg, call); obj != nil {
					if idxs := helperParams[p.funcKey(obj)]; idxs != nil {
						for i, arg := range call.Args {
							if idxs[i] {
								markArg(pkg, arg)
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicSite) == 0 {
		return nil
	}

	// Pass 2: flag plain accesses to those fields.
	var ds []Diagnostic
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				se, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[se] {
					return true
				}
				sel, ok := pkg.Info.Selections[se]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				v, ok := sel.Obj().(*types.Var)
				if !ok {
					return true
				}
				site, marked := atomicSite[p.posKey(v.Pos())]
				if !marked {
					return true
				}
				ds = p.report(ds, "atomicfield", se, fmt.Sprintf(
					"field %s is accessed with sync/atomic at %s:%d but plainly here; make every access atomic or annotate the barrier with //qbs:allow atomicfield <reason>",
					v.Name(), trimPath(site.Filename, p.ModDir), site.Line))
				return true
			})
		}
	}
	return ds
}

// fieldVarOf resolves an lvalue expression (possibly through index
// expressions, e.g. m.words[v>>6]) to the struct field it roots in.
func fieldVarOf(pkg *Package, e ast.Expr) (*types.Var, *ast.SelectorExpr) {
	e = ast.Unparen(e)
	for {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			break
		}
		e = ast.Unparen(ix.X)
	}
	se, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := pkg.Info.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return nil, nil
	}
	v, ok := sel.Obj().(*types.Var)
	if !ok {
		return nil, nil
	}
	return v, se
}

// isSyncAtomicCall reports whether call invokes a sync/atomic package
// function (LoadUint32, CompareAndSwapUint64, StorePointer, ...).
func isSyncAtomicCall(pkg *Package, call *ast.CallExpr) bool {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[se.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return false
	}
	// Package functions only; methods on atomic.Int64 etc. act on
	// dedicated typed fields that cannot be accessed plainly.
	if _, sel := pkg.Info.Selections[se]; sel {
		return false
	}
	return obj.Pkg().Path() == "sync/atomic"
}
