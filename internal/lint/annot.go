package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directives are magic comments with the prefix //qbs: (no space after
// the slashes, mirroring //go: conventions):
//
//	//qbs:zeroalloc            — function doc: the function and its
//	                             module-local callees must not allocate
//	//qbs:hotpath              — function doc: time.Now, fmt, reflection
//	                             and map iteration are banned inside
//	//qbs:publish              — function doc: this function is a
//	                             designated epoch-publish helper
//	//qbs:allow <analyzer> <reason>
//	                           — suppress that analyzer's findings on
//	                             the annotated line (same line or the
//	                             line below the comment), or in the
//	                             whole function when placed in its doc
type annotIndex struct {
	funcList  []*FuncInfo
	funcByKey map[string]*FuncInfo
	allows    []allowRule
	used      map[allowRule]bool // keyed by every allow; true once it suppressed a finding or pruned a zeroalloc walk
	malformed []Diagnostic
}

type allowRule struct {
	pos      token.Position // of the directive
	analyzer string
	// Function line span when the directive sits in a FuncDecl doc
	// comment; zero for statement-level directives.
	funcStart, funcEnd int
}

// Annots builds (once) the directive index over every loaded package.
func (p *Program) Annots() *annotIndex {
	if p.annots != nil {
		return p.annots
	}
	ix := &annotIndex{funcByKey: make(map[string]*FuncInfo), used: make(map[allowRule]bool)}
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			docOwner := make(map[*ast.CommentGroup]*ast.FuncDecl)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fd.Doc != nil {
					docOwner[fd.Doc] = fd
				}
				key := p.posKey(fd.Name.Pos())
				if _, dup := ix.funcByKey[key]; dup {
					continue // same file checked again in a test variant
				}
				fi := &FuncInfo{
					Key:  key,
					Name: funcDisplayName(pkg.Pkg.Name(), fd),
					Decl: fd,
					Pkg:  pkg,
				}
				ix.funcByKey[key] = fi
				ix.funcList = append(ix.funcList, fi)
			}
			for _, cg := range file.Comments {
				owner := docOwner[cg]
				for _, c := range cg.List {
					verb, rest, ok := splitDirective(c.Text)
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					switch verb {
					case "zeroalloc", "hotpath", "publish":
						if owner == nil {
							ix.malformed = append(ix.malformed, Diagnostic{
								Pos:      pos,
								Analyzer: "directive",
								Message:  fmt.Sprintf("//qbs:%s must be in a function's doc comment", verb),
							})
							continue
						}
						fi := ix.funcByKey[p.posKey(owner.Name.Pos())]
						switch verb {
						case "zeroalloc":
							fi.ZeroAlloc = true
						case "hotpath":
							fi.HotPath = true
						case "publish":
							fi.Publish = true
						}
					case "allow":
						fields := strings.Fields(rest)
						if len(fields) < 2 {
							ix.malformed = append(ix.malformed, Diagnostic{
								Pos:      pos,
								Analyzer: "directive",
								Message:  "//qbs:allow needs an analyzer name and a reason: //qbs:allow <analyzer> <reason...>",
							})
							continue
						}
						rule := allowRule{pos: pos, analyzer: fields[0]}
						if owner != nil {
							rule.funcStart = p.Fset.Position(owner.Pos()).Line
							rule.funcEnd = p.Fset.Position(owner.End()).Line
							if fi := ix.funcByKey[p.posKey(owner.Name.Pos())]; fi != nil {
								if fi.Allowed == nil {
									fi.Allowed = make(map[string]allowRule)
								}
								fi.Allowed[fields[0]] = rule
							}
						}
						if _, seen := ix.used[rule]; !seen { // a test variant checks the same file again
							ix.used[rule] = false
							ix.allows = append(ix.allows, rule)
						}
					default:
						ix.malformed = append(ix.malformed, Diagnostic{
							Pos:      pos,
							Analyzer: "directive",
							Message:  fmt.Sprintf("unknown qbs directive %q (known: zeroalloc, hotpath, publish, allow)", verb),
						})
					}
				}
			}
		}
	}
	p.annots = ix
	return ix
}

// suppressed reports whether an //qbs:allow directive covers d, and
// records every directive that does as used.
func (ix *annotIndex) suppressed(d Diagnostic) bool {
	covered := false
	for _, r := range ix.allows {
		if r.analyzer != d.Analyzer || r.pos.Filename != d.Pos.Filename {
			continue
		}
		if r.funcStart > 0 {
			if d.Pos.Line < r.funcStart || r.funcEnd < d.Pos.Line {
				continue
			}
		} else if d.Pos.Line != r.pos.Line && d.Pos.Line != r.pos.Line+1 {
			continue
		}
		ix.used[r] = true
		covered = true
	}
	return covered
}

// prunesZeroAlloc reports whether fi carries a function-level
// //qbs:allow zeroalloc — the mark of a sanctioned cold path a
// zeroalloc walk stops at — and records the directive as used.
func (ix *annotIndex) prunesZeroAlloc(fi *FuncInfo) bool {
	r, ok := fi.Allowed["zeroalloc"]
	if ok {
		ix.used[r] = true
	}
	return ok
}

// StaleAllows returns a finding for every //qbs:allow that, in the
// analyzers run on p so far, suppressed no finding and pruned no
// zeroalloc walk: the code it excused has changed or gone, and left in
// place it would silently excuse whatever lands there next. Meaningful
// after the whole suite has run (RunAll).
func (p *Program) StaleAllows() []Diagnostic {
	ix := p.Annots()
	var ds []Diagnostic
	for _, r := range ix.allows {
		if !ix.used[r] {
			ds = append(ds, Diagnostic{
				Pos:      r.pos,
				Analyzer: "directive",
				Message:  fmt.Sprintf("stale //qbs:allow %s: it suppresses no finding and prunes no zeroalloc walk; delete it", r.analyzer),
			})
		}
	}
	return ds
}

// splitDirective parses "//qbs:verb rest..." comment lines.
func splitDirective(text string) (verb, rest string, ok bool) {
	const prefix = "//qbs:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	body := text[len(prefix):]
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i+1:]), true
	}
	return body, "", true
}

// funcDisplayName renders "pkg.Fn" or "(*pkg.Recv).Fn".
func funcDisplayName(pkgName string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgName + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		if id, ok := baseIdent(star.X); ok {
			return "(*" + pkgName + "." + id + ")." + fd.Name.Name
		}
	}
	if id, ok := baseIdent(recv); ok {
		return "(" + pkgName + "." + id + ")." + fd.Name.Name
	}
	return pkgName + "." + fd.Name.Name
}

func baseIdent(e ast.Expr) (string, bool) {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.IndexExpr: // generic receiver Recv[T]
		return baseIdent(t.X)
	case *ast.IndexListExpr:
		return baseIdent(t.X)
	}
	return "", false
}

// Malformed returns diagnostics for unparseable qbs directives; the
// driver appends them to every run so typos never silently disable a
// check.
func (p *Program) Malformed() []Diagnostic {
	return p.Annots().malformed
}
