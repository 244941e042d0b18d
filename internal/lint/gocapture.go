package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// gocapture generalizes shardrng's concurrency discipline to every
// value a concurrent body captures, not just RNG draw calls and slice
// appends. Inside any `go func(){...}` literal or shard.Run callback it
// flags:
//
//   - writes to captured variables (plain assignment, compound
//     assignment, ++/--) — completion-order-dependent even when
//     mutex-guarded, which is exactly the nondeterminism the indexed
//     per-shard-slot pattern exists to avoid. Indexed element writes
//     (slots[i] = v) commute across goroutines and pass; appends are
//     shardrng's finding and are not re-reported here;
//   - enclosing loop variables read by the body — the repo convention
//     passes them as parameters (`go func(id int){...}(w)`) so the
//     data flowing into each goroutine is explicit;
//   - captured RNG streams handed onward (passed as a call argument)
//     without a visible draw — a draw on a captured stream is
//     shardrng's finding; smuggling the stream into a helper hides the
//     same bug from it.
//
// Package internal/shard is exempt: it implements the primitive, and
// its join/panic-replay machinery is the one sanctioned mutex-guarded
// seam (policed by the race detector and the worker-sweep goldens
// instead).
func init() {
	Register(&Check{
		Name: "gocapture",
		Doc:  "flag concurrent bodies (go statements, shard.Run callbacks) writing captured variables, reading enclosing loop variables, or smuggling captured RNG streams",
		Run:  runGoCapture,
	})
}

func runGoCapture(p *Package) []Finding {
	if p.Path == "internal/shard" {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		shardPkg := importName(file, p.internalPkg("internal/shard"))
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			walkLoopScope(fn.Body, map[string]bool{}, func(lit *ast.FuncLit, loopVars map[string]bool) {
				out = append(out, checkCapturedBody(p, lit, loopVars)...)
			}, p, shardPkg)
		}
	}
	return out
}

// walkLoopScope walks a function body tracking which loop variables are
// in scope, and invokes visit for every concurrent FuncLit (go literal
// or shard.Run callback) with the loop variables active at that point.
func walkLoopScope(n ast.Node, loopVars map[string]bool, visit func(*ast.FuncLit, map[string]bool), p *Package, shardPkg string) {
	switch v := n.(type) {
	case nil:
		return
	case *ast.ForStmt:
		inner := copyScope(loopVars)
		if init, ok := v.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
			for _, lhs := range init.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					inner[id.Name] = true
				}
			}
		}
		walkLoopScope(v.Body, inner, visit, p, shardPkg)
		return
	case *ast.RangeStmt:
		inner := copyScope(loopVars)
		if v.Tok == token.DEFINE {
			if id, ok := v.Key.(*ast.Ident); ok {
				inner[id.Name] = true
			}
			if id, ok := v.Value.(*ast.Ident); ok {
				inner[id.Name] = true
			}
		}
		walkLoopScope(v.X, loopVars, visit, p, shardPkg)
		walkLoopScope(v.Body, inner, visit, p, shardPkg)
		return
	case *ast.GoStmt:
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			visit(lit, loopVars)
		}
		// Arguments evaluate in the spawning goroutine: passing a loop
		// variable there is the sanctioned pattern, so only the literal
		// body is inspected.
		for _, arg := range v.Call.Args {
			walkLoopScope(arg, loopVars, visit, p, shardPkg)
		}
		return
	case *ast.CallExpr:
		if lit := shardRunLit(p, v, shardPkg); lit != nil {
			visit(lit, loopVars)
		}
	case *ast.FuncLit:
		// An ordinary (non-concurrent) literal runs synchronously where
		// it is called; loop variables stay visible inside it.
		walkLoopScope(v.Body, loopVars, visit, p, shardPkg)
		return
	}
	// Generic traversal for every other node kind: recurse into the
	// immediate children under the same scope.
	children(n, func(c ast.Node) {
		walkLoopScope(c, loopVars, visit, p, shardPkg)
	})
}

// children invokes f on each immediate child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

func copyScope(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+2)
	for k := range m {
		out[k] = true
	}
	return out
}

// checkCapturedBody inspects one concurrent body for captured writes,
// loop-variable reads and smuggled RNG streams.
func checkCapturedBody(p *Package, lit *ast.FuncLit, loopVars map[string]bool) []Finding {
	locals := bodyLocals(lit)
	var out []Finding
	flaggedLoopVar := map[string]bool{}
	flaggedRNG := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			return false // inspected as a concurrent body of its own
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range v.Lhs {
				target, node := capturedWriteTarget(lhs, locals)
				if target == "" {
					continue
				}
				// append-to-captured is shardrng's finding; don't
				// double-report the same statement.
				if i < len(v.Rhs) && isAppendCall(v.Rhs[i]) {
					continue
				}
				verb := "assignment to"
				if v.Tok != token.ASSIGN {
					verb = fmt.Sprintf("%s into", v.Tok)
				}
				out = append(out, p.finding("gocapture", node,
					fmt.Sprintf("%s %q, captured from outside the concurrent body, depends on goroutine completion order; write an indexed per-worker slot and reduce after the join", verb, target)))
			}
		case *ast.IncDecStmt:
			if target, node := capturedWriteTarget(v.X, locals); target != "" {
				out = append(out, p.finding("gocapture", node,
					fmt.Sprintf("%s of %q, captured from outside the concurrent body, depends on goroutine completion order; write an indexed per-worker slot and reduce after the join", v.Tok, target)))
			}
		case *ast.Ident:
			if loopVars[v.Name] && !locals[v.Name] && !flaggedLoopVar[v.Name] {
				flaggedLoopVar[v.Name] = true
				out = append(out, p.finding("gocapture", v,
					fmt.Sprintf("loop variable %q captured by the concurrent body; pass it as an argument (go func(x int){...}(%s)) so each goroutine's input is explicit", v.Name, v.Name)))
			}
		case *ast.CallExpr:
			// A captured RNG stream passed onward as an argument hides a
			// scheduling-dependent draw inside the callee; draws on the
			// stream itself are shardrng's finding.
			for _, arg := range v.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok || locals[id.Name] || flaggedRNG[id.Name] || loopVars[id.Name] {
					continue
				}
				if !isRNGExpr(p, id) {
					continue
				}
				flaggedRNG[id.Name] = true
				out = append(out, p.finding("gocapture", arg,
					fmt.Sprintf("RNG stream %q, captured from outside the concurrent body, is handed to a callee; derive per-shard streams with stats.RNG.Split by shard index before the fan-out and pass the shard's own", id.Name)))
			}
		}
		return true
	})
	return out
}

// capturedWriteTarget returns the printable name of a write target that
// lives outside the concurrent body: a non-local identifier or a
// selector/deref chain rooted at one. Indexed element writes
// (slots[i] = v) commute across goroutines and return "".
func capturedWriteTarget(e ast.Expr, locals map[string]bool) (string, ast.Node) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if locals[v.Name] {
			return "", nil
		}
		return v.Name, v
	case *ast.SelectorExpr:
		base := rootIdent(v.X)
		if base == "" || locals[base] {
			return "", nil
		}
		return base + "." + v.Sel.Name, v
	case *ast.StarExpr:
		base := rootIdent(v.X)
		if base == "" || locals[base] {
			return "", nil
		}
		return "*" + base, v
	}
	return "", nil
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// isRNGExpr reports whether the identifier holds a stats.RNG stream:
// typed when resolution reached it (a *stats.RNG or stats.RNG value),
// otherwise by the conservative name convention ("rng" exactly).
func isRNGExpr(p *Package, id *ast.Ident) bool {
	if t := p.exprType(id); t != nil {
		return isStatsRNG(p, t)
	}
	return id.Name == "rng"
}

// isStatsRNG reports whether t is (a pointer to) the stats.RNG type.
func isStatsRNG(p *Package, t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil && obj.Pkg().Path() == p.internalPkg("internal/stats")
}
