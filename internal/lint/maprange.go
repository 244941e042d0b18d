package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// maprange flags `range` over a map whose body produces iteration-order
// data: appending to a slice, writing a trace/obs/IO sink, or folding
// into state that outlives the loop. Go randomizes map iteration order
// per process, so any such site silently breaks replay identity and the
// golden placement-trace checksums.
//
// A fold is `t op= e` or `t = t op e`, with op one of + - * /. A float
// fold is order-dependent whatever it folds into: float addition is not
// associative, so (a+b)+c and a+(b+c) differ in the last ulp and a sum
// over randomly ordered terms drifts even when every term is identical.
// Every float fold is therefore flagged — into an identifier, a field,
// an index (perTier[t] += w) or through a pointer — except into a plain
// identifier that belongs to one iteration (the range variables and
// the names the body declares). An integer fold is flagged into an
// identifier from outside the loop or into a field; integer sums
// commute, so such a site may carry a //colloid:allow maprange
// <reason>. A float fold is reported in its own wording, so an
// exemption for one is written against that text.
//
// Two deterministic idioms are recognized and allowed:
//
//   - key-collect-then-sort: `for k := range m { keys = append(keys, k) }`
//     followed by a sort.*/slices.Sort* call on the same slice later in
//     the function, under whatever name the file imports the package;
//   - per-key map writes (`out[k] = ...`) and deletes, which commute
//     across iteration orders.
//
// A range operand counts as a map by its type, so cross-package map
// returns and named map types are seen and slices named like maps are
// not. Ranges inside package-level function literals are checked too.
func init() {
	Register(&Check{
		Name: "maprange",
		Doc:  "flag map iteration whose body appends, writes a sink, or folds into outer state — any float fold included — the canonical map-order determinism hazard",
		Run:  runMapRange,
	})
}

// sinkMethods are method names that serialize, trace or mutate shared
// metric state; calling one per map iteration bakes the random order
// into an observable artifact.
var sinkMethods = map[string]bool{
	"Emit": true, "Observe": true, "Record": true, "Log": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Add": true, "Set": true, "Inc": true,
}

// sortFuncs are the sort entry points that make a key-collect loop
// deterministic, keyed by import path and function name.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

func runMapRange(p *Package) []Finding {
	seen := map[string]bool{}
	var out []Finding
	for _, file := range p.Files {
		// Each outermost function, declared or a literal in a
		// package-level initializer, is the scope sortedAfter searches.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.FuncDecl:
				body = v.Body
			case *ast.FuncLit:
				body = v.Body
			default:
				return true
			}
			if body == nil {
				return false
			}
			ast.Inspect(body, func(m ast.Node) bool {
				rs, ok := m.(*ast.RangeStmt)
				if !ok || !p.isMap(rs.X) {
					return true
				}
				for _, f := range checkMapBody(p, body, rs) {
					key := f.String()
					if !seen[key] {
						seen[key] = true
						out = append(out, f)
					}
				}
				return true
			})
			return false
		})
	}
	return out
}

// checkMapBody inspects one map-range body, inside the function body
// fn, for order-sensitive writes.
func checkMapBody(p *Package, fn *ast.BlockStmt, rs *ast.RangeStmt) []Finding {
	keyName := identName(rs.Key)
	// locals are the names that belong to one iteration: the range
	// variables and every name the body declares.
	locals := map[string]bool{keyName: true, identName(rs.Value): true}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				for _, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						locals[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range v.Names {
				locals[name.Name] = true
			}
		}
		return true
	})

	var out []Finding
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			out = append(out, checkMapAssign(p, fn, rs, v, keyName, locals)...)
		case *ast.IncDecStmt:
			if outlivesIteration(v.X, locals, false) {
				out = append(out, p.finding("maprange", v,
					fmt.Sprintf("%s of %q inside map iteration accumulates in random order; sort the keys first or suppress with a reason if order-independent", v.Tok, targetName(v.X))))
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sinkMethods[sel.Sel.Name] {
				out = append(out, p.finding("maprange", v,
					fmt.Sprintf("%s called inside map iteration writes a trace/obs/IO sink in random order; iterate sorted keys instead", sel.Sel.Name)))
			}
		}
		return true
	})
	return out
}

// checkMapAssign handles assignments inside a map-range body:
// append-to-outer-slice (allowing key-collect-then-sort) and folds into
// outer state.
func checkMapAssign(p *Package, fn *ast.BlockStmt, rs *ast.RangeStmt, as *ast.AssignStmt, keyName string, locals map[string]bool) []Finding {
	var out []Finding
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" || len(call.Args) == 0 {
			continue
		}
		dst := ""
		if i < len(as.Lhs) {
			dst = identName(as.Lhs[i])
		}
		if dst == "" || as.Tok == token.DEFINE || locals[dst] {
			continue
		}
		// Key-collect idiom: appending exactly the range key, with the
		// slice sorted later in the same function, is the canonical
		// deterministic pattern.
		if len(call.Args) == 2 && keyName != "" && identName(call.Args[1]) == keyName &&
			sortedAfter(p, fn, rs, dst) {
			continue
		}
		out = append(out, p.finding("maprange", as,
			fmt.Sprintf("append to %q inside map iteration captures random order; collect keys, sort, then iterate (or suppress with a reason)", dst)))
	}
	for i, lhs := range as.Lhs {
		op := foldOp(as, i)
		if op == "" {
			continue
		}
		kind := p.floatKind(lhs)
		if !outlivesIteration(lhs, locals, kind != "") {
			continue
		}
		var msg string
		if kind != "" {
			msg = fmt.Sprintf("%s %s into %q inside map iteration folds terms in random order (float addition is not associative); iterate sorted keys", kind, op, targetName(lhs))
		} else {
			msg = fmt.Sprintf("%s into %q inside map iteration accumulates in random order; sort the keys first or suppress with a reason if order-independent (e.g. integer sums)", op, targetName(lhs))
		}
		out = append(out, p.finding("maprange", as, msg))
	}
	return out
}

// foldOp returns the compound operator that folds into as.Lhs[i]: the
// statement's own +=, -=, *= or /=, or the one `t = t op e` spells out
// with op one of + - * /. It returns "" for any other assignment.
func foldOp(as *ast.AssignStmt, i int) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return as.Tok.String()
	case token.ASSIGN:
		if len(as.Rhs) != len(as.Lhs) {
			return ""
		}
		bin, ok := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr)
		if !ok {
			return ""
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			if targetName(bin.X) == targetName(as.Lhs[i]) {
				return bin.Op.String() + "="
			}
		}
	}
	return ""
}

// outlivesIteration reports whether a fold into e outlives one
// iteration: an identifier that is not one of the iteration's locals,
// or a field. An index (counts[id]++) or a pointer target counts only
// for a float fold: an integer one commutes across the keys it lands
// on, a float one does not.
func outlivesIteration(e ast.Expr, locals map[string]bool, float bool) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return !locals[v.Name]
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr, *ast.StarExpr:
		return float
	}
	return false
}

// targetName prints an assignment target as written.
func targetName(e ast.Expr) string {
	return types.ExprString(ast.Unparen(e))
}

// sortedAfter reports whether fn calls a sort function on slice after
// the range statement ends.
func sortedAfter(p *Package, fn *ast.BlockStmt, rs *ast.RangeStmt, slice string) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, name, ok := p.pkgRef(sel)
		if !ok || !sortFuncs[path+"."+name] {
			return true
		}
		if mentionsIdent(call.Args[0], slice) {
			found = true
		}
		return true
	})
	return found
}

// mentionsIdent reports whether expr contains the identifier name.
func mentionsIdent(e ast.Expr, name string) bool {
	hit := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			hit = true
		}
		return true
	})
	return hit
}

// identName unwraps an expression to a plain identifier name ("" when
// it is not one).
func identName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.ParenExpr:
		return identName(v.X)
	}
	return ""
}
