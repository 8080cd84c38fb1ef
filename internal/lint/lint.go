// Package lint is a minimal static-analysis framework with the same
// shape as golang.org/x/tools/go/analysis — Analyzer values with a Run
// hook over a type-checked Pass — rebuilt on the standard library alone
// so the reproduction stays dependency-free. The nine binoptvet
// analyzers turn the repo's load-bearing runtime invariants into
// compile-time checks. Five guard the numeric core (kerneldet,
// barrieruse, unitcheck, floateq, locksafe): bit-identical prices
// across platforms (§IV parity), barrier-protected local memory in the
// work-group kernel (§IV-A "to avoid any memory conflict"), and
// dimensionally consistent joules/seconds/hertz arithmetic in the
// Table-I power model. Four guard the serving fabric's concurrency and
// lifecycle (ctxflow, spawncheck, atomicmix, errdrop). One more
// module-wide check, TestNoTestOnlyExports in the suite package, loads
// the root and bench modules through Load and fails on any exported
// internal/ function that only tests call.
//
// A finding is suppressed by a directive comment on the flagged line or
// the line directly above it:
//
//	//binopt:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"time"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //binopt:ignore directives. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph description printed by binoptvet -help.
	Doc string

	// Match restricts which packages the driver hands to the analyzer;
	// nil means every package. The test harness bypasses Match so
	// testdata packages exercise the analyzer regardless of path.
	Match func(pkgPath string) bool

	// Run executes the check over one package and reports findings
	// through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the finding the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// NewInfo allocates the types.Info maps every analyzer relies on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// AnalyzePackage runs the analyzers over one type-checked package and
// returns the findings with suppression directives already applied:
// suppressed findings are dropped, and malformed or unknown-analyzer
// directives are converted into findings of their own. The analyzers'
// Match filters are NOT consulted here — that is driver policy.
func AnalyzePackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	return analyzePackage(analyzers, fset, files, pkg, info, nil)
}

// analyzePackage is AnalyzePackage with optional per-analyzer wall-time
// accounting: when timings is non-nil, each analyzer's Run duration is
// accumulated under its name.
func analyzePackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, timings map[string]time.Duration) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		t0 := time.Now()
		err := a.Run(pass)
		if timings != nil {
			timings[a.Name] += time.Since(t0)
		}
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	dirs, dirDiags := collectDirectives(analyzers, fset, files)
	diags = append(filterSuppressed(diags, dirs), dirDiags...)
	return diags, nil
}
