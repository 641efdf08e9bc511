// The escape gate: the compiler's own escape analysis over every
// function marked //qbs:zeroalloc. It rebuilds the packages that hold
// them with -gcflags=-m and fails on any "escapes to heap" or "moved to
// heap" diagnostic inside a marked function's lines. "leaking param" is
// not a failure: a parameter that flows into a longer-lived structure
// (the sync.Pool recycle path) allocates at the caller, if anywhere. The
// build cache replays -m diagnostics, so the gate is cheap to rerun.
//
// It complements the AllocsPerRun gates in alloc_test.go: those measure
// the paths a test drives, this one holds every marked function, driven
// or not. //qbs:zeroalloc in a function's doc comment is the only
// directive; any other //qbs: comment fails the gate, so a typo cannot
// silently drop a function from it.
package qbs_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// escapeSpan is the line range of one //qbs:zeroalloc function.
type escapeSpan struct {
	file       string // slash-separated, relative to the module root
	start, end int
	name       string // "pkg.Fn", "(pkg.Recv).Fn" or "(*pkg.Recv).Fn"
}

// zeroAllocSpans parses every non-test Go file of the module rooted at
// dir. It returns the spans of the functions whose doc comment holds
// //qbs:zeroalloc, and a problem for every other //qbs: comment.
func zeroAllocSpans(dir string) (spans []escapeSpan, problems []string, err error) {
	fset := token.NewFileSet()
	err = filepath.WalkDir(dir, func(file string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if file != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, file)
		if err != nil {
			return err
		}
		marked := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == "//qbs:zeroalloc" {
					marked[c] = true
					spans = append(spans, escapeSpan{
						file:  filepath.ToSlash(rel),
						start: fset.Position(fd.Pos()).Line,
						end:   fset.Position(fd.End()).Line,
						name:  funcName(f.Name.Name, fd),
					})
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//qbs:") && !marked[c] {
					problems = append(problems, fmt.Sprintf("%s: %s is not //qbs:zeroalloc in a function's doc comment", fset.Position(c.Pos()), c.Text))
				}
			}
		}
		return nil
	})
	return spans, problems, err
}

// funcName renders fd as "pkg.Fn", "(pkg.Recv).Fn" or "(*pkg.Recv).Fn".
func funcName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	recv, star := fd.Recv.List[0].Type, ""
	if s, ok := recv.(*ast.StarExpr); ok {
		recv, star = s.X, "*"
	}
	switch t := recv.(type) { // a generic receiver Recv[T]
	case *ast.IndexExpr:
		recv = t.X
	case *ast.IndexListExpr:
		recv = t.X
	}
	return fmt.Sprintf("(%s%s.%s).%s", star, pkg, recv.(*ast.Ident).Name, fd.Name.Name)
}

var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// parseEscapeOutput returns one finding per heap escape that -m output
// reports inside a span. Paths in out are as the go command prints them
// from the module root: relative, sometimes with a "./" prefix.
func parseEscapeOutput(out string, spans []escapeSpan) []string {
	var findings []string
	for _, line := range strings.Split(out, "\n") {
		m := escapeLineRE.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || !strings.Contains(m[4], "escapes to heap") && !strings.Contains(m[4], "moved to heap") {
			continue
		}
		file := filepath.ToSlash(strings.TrimPrefix(m[1], "./"))
		n, _ := strconv.Atoi(m[2])
		for _, s := range spans {
			if s.file == file && s.start <= n && n <= s.end {
				findings = append(findings, fmt.Sprintf("%s:%s:%s: %s: %s", file, m[2], m[3], s.name, m[4]))
				break
			}
		}
	}
	return findings
}

// escapeGate runs the gate over the module rooted at dir. It returns the
// findings (misplaced or misspelt directives, else heap escapes) and the
// sorted names of the functions it checked.
func escapeGate(dir string) (findings, checked []string, err error) {
	spans, problems, err := zeroAllocSpans(dir)
	if err != nil || len(problems) > 0 {
		return problems, nil, err
	}
	if len(spans) == 0 {
		return nil, nil, fmt.Errorf("no //qbs:zeroalloc function under %s", dir)
	}
	mod, err := modulePath(dir)
	if err != nil {
		return nil, nil, err
	}
	args := []string{"build", "-gcflags=" + mod + "/...=-m"}
	pkgs := map[string]bool{}
	for _, s := range spans {
		checked = append(checked, s.name)
		if pkg := "./" + path.Dir(s.file); !pkgs[pkg] {
			pkgs[pkg] = true
			args = append(args, pkg)
		}
	}
	sort.Strings(checked)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return parseEscapeOutput(stderr.String(), spans), checked, nil
}

// modulePath reads the module directive of dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod has no module directive", dir)
}

// TestEscapeGate holds every //qbs:zeroalloc function of this module to
// the compiler's escape analysis and logs the name of each one checked.
func TestEscapeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds packages with the toolchain")
	}
	findings, checked, err := escapeGate(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	for _, name := range checked {
		t.Log(name)
	}
}

// TestParseEscapeOutput checks the -m parser on canned compiler output:
// heap escapes inside a span fail, leaking params and non-escapes never
// do, and escapes outside every span are someone else's business.
func TestParseEscapeOutput(t *testing.T) {
	spans := []escapeSpan{
		{file: "internal/core/search.go", start: 195, end: 210, name: "(*core.Searcher).QueryInto"},
		{file: "internal/graph/spg.go", start: 35, end: 45, name: "(*graph.SPG).Reset"},
		{file: "seed.go", start: 3, end: 9, name: "seed.Sum"},
	}
	out := strings.Join([]string{
		"# qbs/internal/core",
		"internal/core/search.go:200:11: new(int32) escapes to heap",
		"internal/core/search.go:198:2: leaking param: spg to result",
		"internal/core/search.go:205:9: make([]int, 4) does not escape",
		"internal/core/search.go:300:5: moved to heap: buf",
		"internal/graph/spg.go:40:3: moved to heap: scratch",
		"internal/graph/other.go:40:3: &lit{} escapes to heap",
		"./seed.go:4:2: moved to heap: total",
		"not a diagnostic line",
	}, "\n")
	got := parseEscapeOutput(out, spans)
	want := []string{
		"internal/core/search.go:200:11: (*core.Searcher).QueryInto: new(int32) escapes to heap",
		"internal/graph/spg.go:40:3: (*graph.SPG).Reset: moved to heap: scratch",
		"seed.go:4:2: seed.Sum: moved to heap: total",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestEscapeGateEndToEnd drives the gate over throwaway modules: a clean
// marked function passes, a heap allocation seeded into it fails, and so
// does a misspelt directive.
func TestEscapeGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a module with the toolchain")
	}
	const clean = `package seed

// Sum is warm and allocation-free.
//
//qbs:zeroalloc
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
`
	const seeded = `package seed

var sink *int

// Sum is marked but leaks a heap allocation.
//
//qbs:zeroalloc
func Sum(xs []int) int {
	total := new(int)
	sink = total
	for _, x := range xs {
		*total += x
	}
	return *total
}
`
	const typo = clean + `
// Max is meant to be checked too.
//
//qbs:zeroaloc
func Max(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
`
	gate := func(t *testing.T, src string) ([]string, []string) {
		t.Helper()
		dir := t.TempDir()
		for name, content := range map[string]string{"go.mod": "module seed\n\ngo 1.22\n", "seed.go": src} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		findings, checked, err := escapeGate(dir)
		if err != nil {
			t.Fatal(err)
		}
		return findings, checked
	}

	t.Run("clean", func(t *testing.T) {
		findings, checked := gate(t, clean)
		if len(findings) != 0 {
			t.Fatalf("clean module failed the gate: %q", findings)
		}
		if len(checked) != 1 || checked[0] != "seed.Sum" {
			t.Fatalf("checked = %q, want [seed.Sum]", checked)
		}
	})
	t.Run("seeded", func(t *testing.T) {
		findings, _ := gate(t, seeded)
		if len(findings) == 0 || !strings.Contains(findings[0], "seed.Sum: new(int) escapes to heap") {
			t.Fatalf("seeded heap allocation: findings %q", findings)
		}
	})
	t.Run("typo", func(t *testing.T) {
		findings, _ := gate(t, typo)
		if len(findings) != 1 || !strings.Contains(findings[0], "//qbs:zeroaloc is not //qbs:zeroalloc") {
			t.Fatalf("misspelt directive: findings %q", findings)
		}
	})
}
