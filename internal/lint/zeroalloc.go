package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ZeroAlloc enforces the warm-path allocation budget: a function
// annotated //qbs:zeroalloc — and every module function it statically
// calls — may not contain constructs that heap-allocate on the steady
// state path. The analyzer complements the runtime ReportAllocs
// regression tests (which measure specific call sites) by covering the
// whole static call tree, and the -escape gate (which asks the
// compiler the same question from the other direction).
var ZeroAlloc = &Analyzer{
	Name: "zeroalloc",
	Doc: "forbid allocating constructs in //qbs:zeroalloc functions and their module-local callees\n\n" +
		"Flagged: make, new, non-self append, go statements, non-deferred function\n" +
		"literals, slice/map composite literals, &composite, string concatenation,\n" +
		"string<->[]byte conversions, fmt calls, and interface boxing of non-pointer\n" +
		"values. Deferred function literals are exempt (open-coded defers do not\n" +
		"allocate), as are x = append(x, ...) self-appends into recycled buffers\n" +
		"(amortized zero after warmup, measured by the ReportAllocs tests).",
	Run: runZeroAlloc,
}

func runZeroAlloc(p *Program) []Diagnostic {
	ix := p.Annots()
	type item struct{ fi, root *FuncInfo }
	var queue []item
	for _, fi := range ix.funcList {
		if fi.ZeroAlloc {
			queue = append(queue, item{fi, fi})
		}
	}
	var ds []Diagnostic
	visited := map[*FuncInfo]bool{}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if visited[it.fi] {
			continue
		}
		visited[it.fi] = true
		if it.fi != it.root && ix.prunesZeroAlloc(it.fi) {
			// A function-level allow marks a sanctioned cold path (pool
			// refill, epoch rebind): neither it nor anything it calls is
			// part of the warm-path allocation budget.
			continue
		}
		ds = append(ds, p.checkZeroAlloc(it.fi, it.root)...)
		for _, c := range p.Callees(it.fi) {
			if !visited[c] {
				queue = append(queue, item{c, it.root})
			}
		}
	}
	return ds
}

func (p *Program) checkZeroAlloc(fi, root *FuncInfo) []Diagnostic {
	if fi.Decl.Body == nil {
		return nil
	}
	pkg := fi.Pkg
	ctx := ""
	if fi != root {
		ctx = fmt.Sprintf(" (in the call tree of //qbs:zeroalloc %s)", root.Name)
	}
	var ds []Diagnostic
	rep := func(n ast.Node, format string, args ...any) {
		msg := fi.Name + ": " + fmt.Sprintf(format, args...) + ctx
		ds = p.report(ds, "zeroalloc", n, msg)
	}

	// Pre-pass: deferred function literals are exempt (open-coded
	// defers stay on the stack), and x = append(x, ...) self-appends
	// into recycled buffers are the sanctioned idiom.
	deferredLit := map[ast.Node]bool{}
	selfAppend := map[ast.Node]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				deferredLit[fl] = true
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(pkg, call.Fun, "append") || len(call.Args) == 0 {
					continue
				}
				arg0 := ast.Unparen(call.Args[0])
				// x = append(x[:0], ...) and x = append(x[:n], ...)
				// re-fill the same recycled buffer; compare the slice
				// base against the destination.
				if sl, ok := arg0.(*ast.SliceExpr); ok {
					arg0 = ast.Unparen(sl.X)
				}
				if types.ExprString(n.Lhs[i]) == types.ExprString(arg0) {
					selfAppend[call] = true
				}
			}
		case *ast.ReturnStmt:
			// return append(buf, ...) where buf is a plain variable is
			// the accumulator idiom: the recycled buffer flows in and
			// back out, so growth amortizes to zero like a self-append.
			for _, res := range n.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok || !isBuiltin(pkg, call.Fun, "append") || len(call.Args) == 0 {
					continue
				}
				if _, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					selfAppend[call] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			rep(n, "go statement allocates a goroutine")
		case *ast.FuncLit:
			if !deferredLit[n] {
				rep(n, "function literal may allocate its closure")
			}
		case *ast.CompositeLit:
			switch pkg.Info.Types[n].Type.Underlying().(type) {
			case *types.Slice:
				rep(n, "slice literal allocates")
			case *types.Map:
				rep(n, "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					rep(n, "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			tv := pkg.Info.Types[n]
			if n.Op.String() == "+" && tv.Value == nil && isString(tv.Type) {
				rep(n, "string concatenation allocates")
			}
		case *ast.CallExpr:
			p.checkZeroAllocCall(pkg, n, selfAppend, rep)
		}
		return true
	})
	return ds
}

func (p *Program) checkZeroAllocCall(pkg *Package, call *ast.CallExpr, selfAppend map[ast.Node]bool, rep func(ast.Node, string, ...any)) {
	// Conversions: T(x).
	if tv, ok := pkg.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pkg.Info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		if stringBytesConversion(dst, src) {
			rep(call, "conversion %s allocates a copy", types.ExprString(call))
			return
		}
		if boxes(dst, src) && pkg.Info.Types[call.Args[0]].Value == nil {
			rep(call, "converting %s to interface %s allocates", src, dst)
		}
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch {
		case isBuiltin(pkg, fun, "make"):
			rep(call, "make allocates")
			return
		case isBuiltin(pkg, fun, "new"):
			rep(call, "new allocates")
			return
		case isBuiltin(pkg, fun, "append"):
			if !selfAppend[call] {
				rep(call, "append into a fresh destination allocates; use x = append(x, ...) on a recycled buffer")
			}
			return
		}
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			rep(call, "fmt.%s allocates", fun.Sel.Name)
			return
		}
	}

	// Interface boxing through call arguments.
	sig, ok := typeOf(pkg, call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := pkg.Info.Types[arg]
		if at.Type == nil || at.Value != nil {
			continue
		}
		if boxes(pt, at.Type) {
			rep(arg, "passing %s in %s parameter allocates (interface boxing)", at.Type, pt)
		}
	}
}

// boxes reports whether assigning a src value to a dst interface heap-
// allocates: dst is an interface, src is a concrete type that is not
// pointer-shaped (pointers, chans, maps and funcs fit in the interface
// word directly).
func boxes(dst, src types.Type) bool {
	if !types.IsInterface(dst) || types.IsInterface(src) {
		return false
	}
	if _, isTP := dst.(*types.TypeParam); isTP {
		return false
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return false
		}
	case *types.TypeParam:
		return false
	}
	return true
}

func stringBytesConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isBuiltin(pkg *Package, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
