package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// maprange flags `range` over a map whose body produces iteration-order
// data: appending to a slice, writing a trace/obs/IO sink, or
// accumulating into state that outlives the loop. Go randomizes map
// iteration order per process, so any such site silently breaks
// replay identity and the golden placement-trace checksums.
//
// Two deterministic idioms are recognized and allowed:
//
//   - key-collect-then-sort: `for k := range m { keys = append(keys, k) }`
//     followed by a sort.*/slices.Sort* call on the same slice later in
//     the function, under whatever name the file imports the package;
//   - per-key map writes (`out[k] = ...`) and deletes, which commute
//     across iteration orders.
//
// Everything the analysis cannot prove safe is flagged; genuinely
// order-independent sites (e.g. integer accumulation, which commutes)
// carry a //colloid:allow maprange <reason> suppression.
//
// A range operand counts as a map by its type, so cross-package map
// returns and named map types are seen and slices named like maps are
// not.
func init() {
	Register(&Check{
		Name: "maprange",
		Doc:  "flag map iteration whose body appends, writes a sink, or accumulates — the canonical map-order determinism hazard",
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
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !p.isMap(rs.X) {
					return true
				}
				for _, f := range checkMapBody(p, fn, rs) {
					key := f.String()
					if !seen[key] {
						seen[key] = true
						out = append(out, f)
					}
				}
				return true
			})
		}
	}
	return out
}

// checkMapBody inspects one map-range body for order-sensitive writes.
func checkMapBody(p *Package, fn *ast.FuncDecl, rs *ast.RangeStmt) []Finding {
	keyName := identName(rs.Key)
	valName := identName(rs.Value)
	bodyLocals := map[string]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				for _, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						bodyLocals[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range v.Names {
				bodyLocals[name.Name] = true
			}
		}
		return true
	})

	var out []Finding
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			out = append(out, checkMapAssign(p, fn, rs, v, keyName, valName, bodyLocals)...)
		case *ast.IncDecStmt:
			if target := outerTarget(v.X, bodyLocals, keyName, valName); target != "" {
				out = append(out, p.finding("maprange", v,
					fmt.Sprintf("%s of %q inside map iteration accumulates in random order; sort the keys first or suppress with a reason if order-independent", v.Tok, target)))
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
// append-to-outer-slice (allowing key-collect-then-sort) and compound
// accumulation into outer state.
func checkMapAssign(p *Package, fn *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt, keyName, valName string, bodyLocals map[string]bool) []Finding {
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
		if dst == "" || as.Tok == token.DEFINE || bodyLocals[dst] {
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
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if target := outerTarget(lhs, bodyLocals, keyName, valName); target != "" {
				out = append(out, p.finding("maprange", as,
					fmt.Sprintf("%s into %q inside map iteration accumulates in random order; sort the keys first or suppress with a reason if order-independent (e.g. integer sums)", as.Tok, target)))
			}
		}
	}
	return out
}

// outerTarget returns the printable name of an assignment target that
// outlives the loop body: a plain identifier not declared in the body
// (and not the range variables), or a selector like s.total. Index
// expressions (m[k] = ..., counts[id]++) are per-key writes that
// commute across iteration orders and return "".
func outerTarget(e ast.Expr, bodyLocals map[string]bool, keyName, valName string) string {
	switch v := e.(type) {
	case *ast.Ident:
		if bodyLocals[v.Name] || v.Name == keyName || v.Name == valName || v.Name == "_" {
			return ""
		}
		return v.Name
	case *ast.SelectorExpr:
		if base := identName(v.X); base != "" {
			return base + "." + v.Sel.Name
		}
		return v.Sel.Name
	case *ast.ParenExpr:
		return outerTarget(v.X, bodyLocals, keyName, valName)
	}
	return ""
}

// sortedAfter reports whether fn calls a sort function on slice after
// the range statement ends.
func sortedAfter(p *Package, fn *ast.FuncDecl, rs *ast.RangeStmt, slice string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
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
