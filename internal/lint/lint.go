// Package lint is edgeis's custom static-analysis suite. It enforces the
// determinism and concurrency invariants the pipeline's paper-fidelity
// claims rest on: no nondeterministic map iteration in seed-pinned code,
// no wall-clock reads where virtual time must be used, no global math/rand
// state shared across experiment arms, no exact float equality in
// scheduler/geometry ordering code, and lock discipline and
// goroutine-lifetime rules in the serving stack.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic, analysistest-style fixtures) but is built on
// the standard library alone — go/ast, go/types, and export data obtained
// from `go list -export` — so the suite works in hermetic builds with no
// module-network access. If x/tools ever lands in the module graph the
// analyzers port to real analysis.Analyzer values almost mechanically.
//
// # Suppression directives
//
// A finding is suppressed by an //edgeis:<name> comment on the flagged line
// or the line directly above it. Every directive must carry a reason:
//
//	//edgeis:ordered   <why iteration order cannot leak into output>
//	//edgeis:wallclock <why real time is required here>
//	//edgeis:globalrand <why shared global rand state is safe>
//	//edgeis:floateq   <why exact float equality is intended>
//	//edgeis:lockdance <why this manual unlock under a pending defer is safe>
//	//edgeis:lockheld  <why blocking while holding this mutex is safe>
//	//edgeis:detached  <why this goroutine needs no shutdown path>
//	//edgeis:wgadd     <why Add inside the goroutine cannot race Wait>
//
// Unknown //edgeis: directives and directives without a reason are
// themselves reported. So is a well-formed directive that no longer
// suppresses any finding of its owning analyzer: when the code a
// suppression excused moves or gets fixed, the stale annotation is flagged
// instead of rotting into misleading documentation.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It is the stdlib-only analogue
// of analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Directive is the //edgeis:<Directive> suppression name honoured by
	// this analyzer, or "" if findings cannot be suppressed.
	Directive string
	// Run reports findings for one package via pass.Reportf.
	Run func(*Pass) error
}

// A Diagnostic is a single finding, positioned in pass.Fset.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass holds one type-checked package being analyzed, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed sources of the package under analysis
	// (test files are excluded by the loader).
	Files []*ast.File
	// Pkg is the type-checked package and PkgPath its import path. In
	// fixture tests PkgPath is the fixture directory name, so analyzers
	// must scope themselves by the path's base element.
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	diagnostics *[]Diagnostic
	directives  map[*ast.File][]*directive
}

// Reportf records a finding at pos unless a matching suppression directive
// covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Analyzer.Directive != "" && p.suppressed(pos, p.Analyzer.Directive) {
		return
	}
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgBase returns the last element of the package path, the unit analyzers
// use for scoping (so fixtures named like real packages scope identically).
func (p *Pass) PkgBase() string { return path.Base(p.PkgPath) }

// directive is one parsed //edgeis:<name> comment. used records whether it
// suppressed at least one finding in this Run, feeding the stale-suppression
// audit; the entries are shared by pointer across the per-analyzer Pass
// copies so usage accumulates over the whole suite.
type directive struct {
	line   int
	name   string
	reason string
	pos    token.Pos
	used   bool
}

// DirectivePrefix introduces a suppression comment.
const DirectivePrefix = "//edgeis:"

// knownDirectives is the full suppression grammar; one entry per analyzer.
var knownDirectives = map[string]bool{
	"ordered":    true,
	"wallclock":  true,
	"globalrand": true,
	"floateq":    true,
	"lockdance":  true,
	"lockheld":   true,
	"detached":   true,
	"wgadd":      true,
}

// parseDirectives extracts //edgeis: directives from a file's comments.
func parseDirectives(fset *token.FileSet, file *ast.File) []*directive {
	var ds []*directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, DirectivePrefix)
			name, reason, _ := strings.Cut(rest, " ")
			ds = append(ds, &directive{
				line:   fset.Position(c.Pos()).Line,
				name:   name,
				reason: strings.TrimSpace(reason),
				pos:    c.Pos(),
			})
		}
	}
	return ds
}

// suppressed reports whether a directive named name covers the line of pos:
// the directive sits on the same line (trailing comment) or the line above.
func (p *Pass) suppressed(pos token.Pos, name string) bool {
	file := p.fileFor(pos)
	if file == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, d := range p.directives[file] {
		if d.name == name && d.reason != "" && (d.line == line || d.line == line-1) {
			d.used = true
			return true
		}
	}
	return false
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// checkDirectiveWellFormed reports malformed //edgeis: comments: unknown
// directive names and directives missing the mandatory reason. It runs once
// per package, independent of the analyzer list.
func checkDirectiveWellFormed(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range pass.directives[f] {
			switch {
			case !knownDirectives[d.name]:
				known := make([]string, 0, len(knownDirectives))
				for k := range knownDirectives {
					known = append(known, k)
				}
				sort.Strings(known)
				*pass.diagnostics = append(*pass.diagnostics, Diagnostic{
					Pos:      d.pos,
					Analyzer: "directive",
					Message: fmt.Sprintf("unknown suppression directive %q (known: %s)",
						DirectivePrefix+d.name, strings.Join(known, ", ")),
				})
			case d.reason == "":
				*pass.diagnostics = append(*pass.diagnostics, Diagnostic{
					Pos:      d.pos,
					Analyzer: "directive",
					Message:  fmt.Sprintf("suppression %s%s needs a reason: %s%s <why this is safe>", DirectivePrefix, d.name, DirectivePrefix, d.name),
				})
			}
		}
	}
}

// auditStaleDirectives reports well-formed suppressions that no longer
// suppress anything: a directive whose owning analyzer ran in this pass but
// which matched no finding marks code that has moved or been fixed, and a
// stale annotation rots into misleading documentation. Directives whose
// owner was not in the analyzer list are left alone, so a partial -run
// cannot flag the other analyzers' annotations.
func auditStaleDirectives(pass *Pass, analyzers []*Analyzer) {
	owner := map[string]string{}
	for _, a := range analyzers {
		if a.Directive != "" {
			owner[a.Directive] = a.Name
		}
	}
	for _, f := range pass.Files {
		for _, d := range pass.directives[f] {
			name, ran := owner[d.name]
			if !ran || d.used || d.reason == "" || !knownDirectives[d.name] {
				continue
			}
			*pass.diagnostics = append(*pass.diagnostics, Diagnostic{
				Pos:      d.pos,
				Analyzer: "directive",
				Message: fmt.Sprintf("suppression %s%s no longer suppresses any %s finding; remove the stale annotation",
					DirectivePrefix, d.name, name),
			})
		}
	}
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, WallTime, SeedRand, FloatEq, LockBalance, LockBlock, GoroLeak, WgAdd}
}

// Run type-checks nothing itself; it applies the given analyzers to an
// already type-checked package and returns the findings sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, pkgPath string, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	directives := make(map[*ast.File][]*directive, len(files))
	for _, f := range files {
		directives[f] = parseDirectives(fset, f)
	}
	base := &Pass{
		Fset:        fset,
		Files:       files,
		Pkg:         pkg,
		PkgPath:     pkgPath,
		TypesInfo:   info,
		diagnostics: &diags,
		directives:  directives,
	}
	checkDirectiveWellFormed(base)
	for _, a := range analyzers {
		pass := *base
		pass.Analyzer = a
		if err := a.Run(&pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	auditStaleDirectives(base, analyzers)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
