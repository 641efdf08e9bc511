package lint

import (
	"fmt"
	"go/token"
)

// All is the qbs-vet analyzer suite in the order findings are listed.
var All = []*Analyzer{ZeroAlloc, AtomicField, LoggedPublish, HotPath, SyncErr}

// RunAll runs every analyzer plus the two directive checks — malformed
// directives, and allows the run found nothing to excuse — and returns
// the sorted, deduplicated findings.
func RunAll(p *Program) []Diagnostic {
	var ds []Diagnostic
	ds = append(ds, p.Malformed()...)
	for _, a := range All {
		ds = append(ds, a.Run(p)...)
	}
	ds = append(ds, p.StaleAllows()...)
	return SortDiagnostics(ds)
}

// Rel renders a position relative to the module root for display.
func (p *Program) Rel(pos token.Position) string {
	return fmt.Sprintf("%s:%d:%d", trimPath(pos.Filename, p.ModDir), pos.Line, pos.Column)
}
