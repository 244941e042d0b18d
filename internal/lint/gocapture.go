package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// gocapture guards the concurrency contract that keeps results
// worker-invariant (see internal/shard): a function that runs
// concurrently — a `go func(){...}` body or the callback handed to
// shard.Run, nested ones and ones in package-level initializers
// included — may write only state it owns. Inside each such body it
// flags:
//
//   - writes to captured variables (plain assignment, compound
//     assignment, ++/--), reached directly or through a field or a
//     pointer — completion-order-dependent even when mutex-guarded,
//     which is exactly the nondeterminism the indexed per-shard-slot
//     pattern exists to avoid. Indexed element writes (slots[i] = v)
//     commute across goroutines and pass;
//   - appends to captured slices, which bake completion order into the
//     result;
//   - draws (Uint64, Float64, Intn, ..., Sample, SampleN) on a stream
//     rooted at a captured identifier, which make the stream's draw
//     order scheduling-dependent, and captured stats.RNG streams handed
//     to a callee, which hide the same bug inside it.
//
// Reading a captured variable is not flagged, an enclosing loop
// variable included: since Go 1.22 (go.mod's version) each iteration
// has its own loop variable, so a body that reads one sees its own
// iteration's value. A loop-variable stream is a captured stream like
// any other.
//
// Each finding breaks the golden worker sweep in a way that only
// reproduces under particular worker counts. Genuinely safe captures
// (shard.Run's own mutex-guarded panic replay) carry a
// //colloid:allow gocapture <reason> suppression.
func init() {
	Register(&Check{
		Name: "gocapture",
		Doc:  "flag concurrent bodies (go statements, shard.Run callbacks) writing or appending to captured variables, or drawing from or handing on captured RNG streams",
		Run:  runGoCapture,
	})
}

// rngDrawMethods are the method names that advance an RNG stream (or a
// sampler wrapping one).
var rngDrawMethods = map[string]bool{
	"Uint64": true, "Float64": true, "Intn": true, "Int63n": true,
	"Uint64n": true, "NormFloat64": true, "Perm": true, "Shuffle": true,
	"Sample": true, "SampleN": true,
}

func runGoCapture(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, b := range concurrentBodies(p, file) {
			out = append(out, checkCapturedBody(p, b)...)
		}
	}
	return out
}

// concurrentBody is one function literal that runs concurrently with
// the code around it: a `go` literal or a shard.Run callback. Only the
// literal's body runs concurrently; a go statement's arguments are
// evaluated by the spawning code.
type concurrentBody struct {
	lit *ast.FuncLit
	// locals are the names the body declares: parameters, :=
	// definitions, var specs and range variables.
	locals map[string]bool
	// concurrent holds every concurrent literal of the file; inspect
	// leaves them to their own visit.
	concurrent map[*ast.FuncLit]bool
}

// concurrentBodies finds every `go` literal and shard.Run callback in
// the file, nested ones and ones in package-level initializers
// included, in source order.
func concurrentBodies(p *Package, file *ast.File) []*concurrentBody {
	concurrent := map[*ast.FuncLit]bool{}
	var out []*concurrentBody
	ast.Inspect(file, func(n ast.Node) bool {
		var lit *ast.FuncLit
		switch v := n.(type) {
		case *ast.GoStmt:
			lit, _ = v.Call.Fun.(*ast.FuncLit)
		case *ast.CallExpr:
			lit = shardRunLit(p, v)
		}
		if lit != nil {
			concurrent[lit] = true
			out = append(out, &concurrentBody{lit: lit, concurrent: concurrent})
		}
		return true
	})
	for _, b := range out {
		b.locals = b.declared()
	}
	return out
}

// inspect walks the body's own nodes depth-first, as ast.Inspect does;
// nested concurrent literals are skipped, since they are bodies of
// their own.
func (b *concurrentBody) inspect(f func(ast.Node) bool) {
	ast.Inspect(b.lit.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && b.concurrent[lit] {
			return false
		}
		return f(n)
	})
}

// declared collects the names the body declares.
func (b *concurrentBody) declared() map[string]bool {
	locals := map[string]bool{"_": true}
	for _, f := range b.lit.Type.Params.List {
		for _, name := range f.Names {
			locals[name.Name] = true
		}
	}
	add := func(ids ...ast.Expr) {
		for _, e := range ids {
			if id, ok := e.(*ast.Ident); ok {
				locals[id.Name] = true
			}
		}
	}
	b.inspect(func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				add(v.Lhs...)
			}
		case *ast.ValueSpec:
			for _, name := range v.Names {
				locals[name.Name] = true
			}
		case *ast.RangeStmt:
			if v.Tok == token.DEFINE {
				add(v.Key, v.Value)
			}
		}
		return true
	})
	return locals
}

// shardRunLit returns the FuncLit callback of a shard.Run call (nil for
// any other call). The callee resolves to its object, so aliases of the
// shard import and a bare Run inside package shard itself are seen.
func shardRunLit(p *Package, call *ast.CallExpr) *ast.FuncLit {
	obj := p.calleeObj(call)
	if obj == nil || obj.Name() != "Run" || obj.Pkg() == nil || obj.Pkg().Path() != p.internalPkg("internal/shard") || len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// checkCapturedBody inspects one concurrent body for captured writes
// and appends, and captured RNG draws and hand-ons.
func checkCapturedBody(p *Package, b *concurrentBody) []Finding {
	var out []Finding
	flaggedRNG := map[string]bool{}
	b.inspect(func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range v.Lhs {
				target, node := capturedWriteTarget(lhs, b.locals)
				switch {
				case target == "":
				case i < len(v.Rhs) && isAppendCall(v.Rhs[i]):
					out = append(out, p.finding("gocapture", v,
						fmt.Sprintf("append to %q, a slice captured from outside the concurrent body, reduces in completion order; write an indexed per-shard slot and concatenate in shard index order after the join", target)))
				default:
					verb := "assignment to"
					if v.Tok != token.ASSIGN {
						verb = fmt.Sprintf("%s into", v.Tok)
					}
					out = append(out, p.finding("gocapture", node,
						fmt.Sprintf("%s %q, captured from outside the concurrent body, depends on goroutine completion order; write an indexed per-worker slot and reduce after the join", verb, target)))
				}
			}
		case *ast.IncDecStmt:
			if target, node := capturedWriteTarget(v.X, b.locals); target != "" {
				out = append(out, p.finding("gocapture", node,
					fmt.Sprintf("%s of %q, captured from outside the concurrent body, depends on goroutine completion order; write an indexed per-worker slot and reduce after the join", v.Tok, target)))
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && rngDrawMethods[sel.Sel.Name] {
				if base := rootIdent(sel.X); base != "" && !b.locals[base] {
					out = append(out, p.finding("gocapture", v,
						fmt.Sprintf("%s draws from %q, an RNG stream captured from outside the concurrent body; derive per-shard streams with stats.RNG.Split by shard index before the fan-out and bind the shard's own locally", sel.Sel.Name, base)))
				}
			}
			// A captured RNG stream passed onward as an argument hides a
			// scheduling-dependent draw inside the callee.
			for _, arg := range v.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok || b.locals[id.Name] || flaggedRNG[id.Name] || !isStatsRNG(p, p.exprType(id)) {
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

// rootIdent unwraps a selector/index/paren chain to its base
// identifier ("" when the base is not a plain identifier).
func rootIdent(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v.Name
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return ""
		}
	}
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
