package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// floatorder guards bit-identity where floating point meets
// nondeterministic ordering. Float addition is not associative:
// (a+b)+c and a+(b+c) differ in the last ulp, so a float accumulation
// whose term order varies run-to-run produces checksums that drift
// even when every term is identical. Two such orderings exist in this
// codebase:
//
//   - `range` over a map: Go randomizes iteration order per process,
//     so even a body-local `sum += w` folds the terms differently each
//     run — this is why maprange's "integer sums commute" escape hatch
//     must never be borrowed for floats;
//   - concurrent bodies (shard.Run callbacks, go literals)
//     accumulating into captured state: the fold order follows
//     goroutine completion. Body-local accumulators reduced through
//     indexed per-shard slots in shard-index order remain exact and
//     pass.
//
// The check is typed (it must know the target is a float); sites the
// loader could not resolve are left to maprange/gocapture's coarser
// nets.
func init() {
	Register(&Check{
		Name: "floatorder",
		Doc:  "flag float32/float64 compound accumulation inside map ranges (any target) and concurrent bodies (captured targets)",
		Run:  runFloatOrder,
	})
}

// compoundOps are the accumulating assignment operators whose float
// result depends on evaluation order.
var compoundOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

func runFloatOrder(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []Finding
	add := func(f Finding) {
		if key := f.String(); !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}
	for _, file := range p.Files {
		// Map ranges: every float compound accumulation in the body is
		// order-dependent, body-local or not.
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if isMap, known := p.mapTyped(rs.X); !known || !isMap {
				return true
			}
			ast.Inspect(rs.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || !compoundOps[as.Tok] {
					return true
				}
				for _, lhs := range as.Lhs {
					if name, kind := p.floatTarget(lhs); name != "" {
						add(p.finding("floatorder", as,
							fmt.Sprintf("%s %s into %q inside map iteration folds terms in random order (float addition is not associative); iterate sorted keys", kind, as.Tok, name)))
					}
				}
				return true
			})
			return true
		})
		// Concurrent bodies: float accumulation into captured state
		// folds in completion order.
		for _, b := range concurrentBodies(p, file) {
			b.inspect(func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || !compoundOps[as.Tok] {
					return true
				}
				for _, lhs := range as.Lhs {
					// Indexed slots (totals[s] += x) are single-writer
					// per shard and fold in-order within it — the
					// sanctioned pattern.
					if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex {
						continue
					}
					name, kind := p.floatTarget(lhs)
					if name == "" {
						continue
					}
					if base := rootIdent(lhs); base != "" && b.locals[base] {
						continue
					}
					add(p.finding("floatorder", as,
						fmt.Sprintf("%s %s into captured %q inside a concurrent body folds terms in completion order (float addition is not associative); accumulate into an indexed per-shard slot and reduce in shard order", kind, as.Tok, name)))
				}
				return true
			})
		}
	}
	return out
}

// floatTarget returns a printable name and the float kind when lhs is a
// float32/float64-typed accumulation target ("" otherwise).
func (p *Package) floatTarget(lhs ast.Expr) (name, kind string) {
	t := p.exprType(lhs)
	if t == nil {
		return "", ""
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return "", ""
	}
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return v.Name, basic.Name()
	case *ast.SelectorExpr:
		if base := rootIdent(v.X); base != "" {
			return base + "." + v.Sel.Name, basic.Name()
		}
		return v.Sel.Name, basic.Name()
	case *ast.IndexExpr:
		if base := rootIdent(v.X); base != "" {
			return base + "[...]", basic.Name()
		}
	case *ast.StarExpr:
		if base := rootIdent(v.X); base != "" {
			return "*" + base, basic.Name()
		}
	}
	return "", ""
}
