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
//     to a callee, which hide the same bug inside it;
//   - enclosing loop variables read by the body — the repo convention
//     passes them as parameters (`go func(id int){...}(w)`) so the
//     data flowing into each goroutine is explicit.
//
// Each finding breaks the golden worker sweep in a way that only
// reproduces under particular worker counts. Genuinely safe captures
// (shard.Run's own mutex-guarded panic replay) carry a
// //colloid:allow gocapture <reason> suppression.
func init() {
	Register(&Check{
		Name: "gocapture",
		Doc:  "flag concurrent bodies (go statements, shard.Run callbacks) writing or appending to captured variables, drawing from or handing on captured RNG streams, or reading enclosing loop variables",
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
// evaluated by the spawning code, which is how the sanctioned pattern
// passes a loop variable in.
type concurrentBody struct {
	lit *ast.FuncLit
	// loopVars are the enclosing loop variables in scope at the literal.
	loopVars map[string]bool
	// locals are the names the body declares: parameters, :=
	// definitions, var specs and range variables.
	locals map[string]bool
	// concurrent holds every concurrent literal of the file; inspect
	// leaves them to their own visit.
	concurrent map[*ast.FuncLit]bool
}

// concurrentBodies finds every `go` literal and shard.Run callback in
// the file, nested ones and ones in package-level initializers
// included, in source order. It is the one walk gocapture and
// floatorder share.
func concurrentBodies(p *Package, file *ast.File) []*concurrentBody {
	shardPkg := importName(file, p.internalPkg("internal/shard"))
	concurrent := map[*ast.FuncLit]bool{}
	var out []*concurrentBody
	var walk func(n ast.Node, loopVars map[string]bool)
	walk = func(n ast.Node, loopVars map[string]bool) {
		var lit *ast.FuncLit
		switch v := n.(type) {
		case *ast.ForStmt:
			if init, ok := v.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				loopVars = withLoopVars(loopVars, init.Lhs...)
			}
		case *ast.RangeStmt:
			walk(v.X, loopVars)
			if v.Tok == token.DEFINE {
				loopVars = withLoopVars(loopVars, v.Key, v.Value)
			}
			walk(v.Body, loopVars)
			return
		case *ast.GoStmt:
			lit, _ = v.Call.Fun.(*ast.FuncLit)
		case *ast.CallExpr:
			lit = shardRunLit(p, v, shardPkg)
		}
		if lit != nil {
			concurrent[lit] = true
			out = append(out, &concurrentBody{lit: lit, loopVars: loopVars, concurrent: concurrent})
		}
		children(n, func(c ast.Node) { walk(c, loopVars) })
	}
	walk(file, nil)
	for _, b := range out {
		b.locals = b.declared()
	}
	return out
}

// withLoopVars returns a copy of scope with the identifiers among vars
// added.
func withLoopVars(scope map[string]bool, vars ...ast.Expr) map[string]bool {
	out := make(map[string]bool, len(scope)+len(vars))
	for k := range scope {
		out[k] = true
	}
	for _, v := range vars {
		if id, ok := v.(*ast.Ident); ok {
			out[id.Name] = true
		}
	}
	return out
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
// any other call), resolved through type information when available (so
// wrappers and aliases can't hide the call) and falling back to the
// syntactic matcher otherwise: a selector on the shard import, or a
// bare Run inside package shard itself.
func shardRunLit(p *Package, call *ast.CallExpr, shardPkg string) *ast.FuncLit {
	isRun := false
	if obj := p.calleeObj(call); obj != nil {
		isRun = obj.Name() == "Run" && obj.Pkg() != nil && obj.Pkg().Path() == p.internalPkg("internal/shard")
	} else if name, ok := pkgSelector(call.Fun, shardPkg); ok {
		isRun = name == "Run"
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		isRun = id.Name == "Run" && p.Path == "internal/shard"
	}
	if !isRun || len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// checkCapturedBody inspects one concurrent body for captured writes
// and appends, captured RNG draws and hand-ons, and loop-variable
// reads.
func checkCapturedBody(p *Package, b *concurrentBody) []Finding {
	var out []Finding
	flaggedLoopVar := map[string]bool{}
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
		case *ast.Ident:
			if b.loopVars[v.Name] && !b.locals[v.Name] && !flaggedLoopVar[v.Name] {
				flaggedLoopVar[v.Name] = true
				out = append(out, p.finding("gocapture", v,
					fmt.Sprintf("loop variable %q captured by the concurrent body; pass it as an argument (go func(x int){...}(%s)) so each goroutine's input is explicit", v.Name, v.Name)))
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
				if !ok || b.locals[id.Name] || flaggedRNG[id.Name] || b.loopVars[id.Name] || !isRNGExpr(p, id) {
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
