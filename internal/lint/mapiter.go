package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// deterministicPkgs are the packages whose output must be a pure function
// of the experiment seed: anything feeding the golden-pinned sim pipeline.
// Map iteration order leaking into their output is exactly the bug class
// PR 2 fixed by hand in internal/vo.
var deterministicPkgs = map[string]bool{
	"vo":          true,
	"core":        true,
	"pipeline":    true,
	"experiments": true,
	"scene":       true,
	"feature":     true,
	"segmodel":    true,
	"netsim":      true,
	"baseline":    true,
	"roisel":      true,
	// loadgen's simulator reports are committed as BENCH_serving.json and
	// diffed byte-for-byte, so map order must not leak into them.
	"loadgen": true,
}

// MapIter flags `for range` over a map in deterministic packages unless the
// loop body is provably order-insensitive or the site carries an
// //edgeis:ordered suppression.
var MapIter = &Analyzer{
	Name:      "mapiter",
	Directive: "ordered",
	Doc: `flags range-over-map in seed-deterministic packages

Go randomizes map iteration order, so any map range whose body's effect
depends on visit order makes identical seeds produce different runs. Iterate
over sorted keys instead, or annotate the loop with
//edgeis:ordered <reason> if order provably cannot leak into output.

Recognized order-insensitive bodies are not flagged: commutative
accumulation (sum += v, n++), per-key writes (other[k] = f(v)), delete(m, k),
and the collect-then-sort idiom (keys = append(keys, k) followed by a sort.X
or slices.Sort/SortFunc/SortStableFunc of that slice in the same block).`,
	Run: runMapIter,
}

func runMapIter(pass *Pass) error {
	if !deterministicPkgs[pass.PkgBase()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Statements live in block, case-clause, and comm-clause lists;
			// scan each list so a range's trailing statements are in hand
			// for the collect-then-sort idiom.
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				if lbl, ok := stmt.(*ast.LabeledStmt); ok {
					stmt = lbl.Stmt
				}
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if !isMapRange(pass, rng) {
					continue
				}
				if orderInsensitiveBody(pass, rng, list[i+1:]) {
					continue
				}
				pass.Reportf(rng.For,
					"range over map %s in deterministic package %q: iteration order is randomized; iterate sorted keys or annotate //edgeis:ordered <reason>",
					exprString(pass, rng.X), pass.PkgBase())
			}
			return true
		})
	}
	return nil
}

func isMapRange(pass *Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// orderInsensitiveBody reports whether every statement in the range body is
// one whose cumulative effect is independent of visit order. rest holds the
// statements following the range in its enclosing block, used to recognize
// the collect-then-sort idiom. Conditions of if statements are assumed
// side-effect-free; //edgeis:ordered remains the escape hatch for bodies
// beyond the heuristic.
func orderInsensitiveBody(pass *Pass, rng *ast.RangeStmt, rest []ast.Stmt) bool {
	// constWrites records map writes of constant values, keyed by the
	// written expression's printed form: set-building like seen[id] = true
	// is idempotent, but two sites writing DIFFERENT constants to one map
	// would make collisions order-dependent.
	constWrites := map[string][]constant.Value{}
	if !orderInsensitiveStmts(pass, rng, rng.Body.List, rest, constWrites) {
		return false
	}
	for _, vals := range constWrites {
		for _, v := range vals[1:] {
			if constant.Compare(vals[0], token.NEQ, v) {
				return false
			}
		}
	}
	return true
}

func orderInsensitiveStmts(pass *Pass, rng *ast.RangeStmt, stmts, rest []ast.Stmt, constWrites map[string][]constant.Value) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			// n++ / n-- : commutative.
		case *ast.BranchStmt:
			// Skipping an entry is order-free; break/goto are not.
			if s.Tok != token.CONTINUE || s.Label != nil {
				return false
			}
		case *ast.ExprStmt:
			// delete(m, k) removes per key: commutative.
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "delete") {
				return false
			}
		case *ast.IfStmt:
			// A pure filter around order-insensitive work stays
			// order-insensitive. Init may only declare fresh variables.
			if s.Init != nil {
				init, ok := s.Init.(*ast.AssignStmt)
				if !ok || init.Tok != token.DEFINE {
					return false
				}
			}
			if !orderInsensitiveStmts(pass, rng, s.Body.List, rest, constWrites) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !orderInsensitiveStmts(pass, rng, e.List, rest, constWrites) {
					return false
				}
			case *ast.IfStmt:
				if !orderInsensitiveStmts(pass, rng, []ast.Stmt{e}, rest, constWrites) {
					return false
				}
			default:
				return false
			}
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(pass, rng, s, rest, constWrites) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func orderInsensitiveAssign(pass *Pass, rng *ast.RangeStmt, s *ast.AssignStmt, rest []ast.Stmt, constWrites map[string][]constant.Value) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// sum += v and friends: commutative accumulation. (Float rounding
		// does depend on order, but floateq guards the comparisons where
		// that bites; treating += as clean keeps the analyzer useful.)
		return true
	case token.ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		// keys = append(keys, ...) is order-sensitive on its own but is the
		// front half of the canonical sorted-iteration fix; accept it when a
		// sort of the same slice follows in the enclosing block.
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
			if dst, ok := s.Lhs[0].(*ast.Ident); ok && sortedLater(pass, dst, rest) {
				return true
			}
			return false
		}
		idx, ok := s.Lhs[0].(*ast.IndexExpr)
		if !ok {
			return false
		}
		// other[k] = v writes one entry per distinct key: commutative.
		if keyIdent, ok := rng.Key.(*ast.Ident); ok && keyIdent.Name != "_" {
			if i, ok := idx.Index.(*ast.Ident); ok && pass.TypesInfo.Uses[i] == pass.TypesInfo.Defs[keyIdent] {
				return true
			}
		}
		// seen[expr] = true builds a set: collisions rewrite the same
		// constant, so order cannot show. Recorded for the cross-site
		// same-constant check in orderInsensitiveBody.
		if tv, ok := pass.TypesInfo.Types[s.Rhs[0]]; ok && tv.Value != nil {
			target := types.ExprString(idx.X)
			constWrites[target] = append(constWrites[target], tv.Value)
			return true
		}
		return false
	default:
		return false
	}
}

// sortedLater reports whether one of the statements after the range loop is
// a sort.X(...) or slices.Sort/SortFunc/SortStableFunc(...) call whose
// arguments mention dst.
func sortedLater(pass *Pass, dst *ast.Ident, rest []ast.Stmt) bool {
	obj := pass.TypesInfo.Uses[dst]
	if obj == nil {
		obj = pass.TypesInfo.Defs[dst]
	}
	for _, stmt := range rest {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || !isSortCall(pass, pkg, sel.Sel.Name) {
			continue
		}
		mentions := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && obj != nil && pass.TypesInfo.Uses[id] == obj {
					mentions = true
				}
				return !mentions
			})
		}
		if mentions {
			return true
		}
	}
	return false
}

// slicesSorts are the package slices functions that sort their argument.
var slicesSorts = map[string]bool{"Sort": true, "SortFunc": true, "SortStableFunc": true}

// isSortCall reports whether pkg.name sorts its argument: any function of
// package sort, or one of slicesSorts.
func isSortCall(pass *Pass, pkg *ast.Ident, name string) bool {
	return isPkgName(pass, pkg, "sort") || isPkgName(pass, pkg, "slices") && slicesSorts[name]
}

// isBuiltin reports whether fun is a direct use of the named builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// isPkgName reports whether id resolves to the import of the given package.
func isPkgName(pass *Pass, id *ast.Ident, pkgPath string) bool {
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// exprString renders a short source-ish form of e for diagnostics.
func exprString(pass *Pass, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(pass, e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(pass, e.Fun) + "(...)"
	default:
		return "expression"
	}
}
