package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// shardrng guards the sharded-pipeline concurrency contract that keeps
// results worker-invariant (see internal/shard): a function that runs
// concurrently — a `go func(){...}` body or the callback handed to
// shard.Run — must draw randomness only from a stream it derived
// locally (per-shard streams, `rng := streams[s]`), never from a
// stream captured from the enclosing scope, and must reduce through
// indexed per-shard slots rather than appending to a shared slice.
// A captured stream makes draw interleaving depend on goroutine
// scheduling; a shared append bakes completion order into the result
// (and races). Both break the golden worker sweep in ways that only
// reproduce under particular worker counts, which is exactly the class
// of bug lint time should catch.
//
// The analysis is syntactic: it flags calls of RNG draw-method names
// (Uint64, Float64, Intn, ... , Sample, SampleN) whose receiver chain
// is rooted at an identifier not declared inside the concurrent body,
// and appends whose destination is such an identifier. Indexed writes
// (buf[s] = ...) and appends to body-locals are the sanctioned
// patterns and pass. Genuinely safe captures (e.g. a mutex-guarded
// draw) carry a //colloid:allow shardrng <reason> suppression.
func init() {
	Register(&Check{
		Name: "shardrng",
		Doc:  "flag concurrent bodies (go statements, shard.Run callbacks) drawing from a captured RNG stream or appending to a captured slice",
		Run:  runShardRNG,
	})
}

// rngDrawMethods are the method names that advance an RNG stream (or a
// sampler wrapping one); a call on a captured receiver inside a
// concurrent body makes the stream's draw order scheduling-dependent.
var rngDrawMethods = map[string]bool{
	"Uint64": true, "Float64": true, "Intn": true, "Int63n": true,
	"Uint64n": true, "NormFloat64": true, "Perm": true, "Shuffle": true,
	"Sample": true, "SampleN": true,
}

func runShardRNG(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		shardPkg := importName(file, "colloid/internal/shard")
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
					out = append(out, checkConcurrentBody(p, lit)...)
				}
			case *ast.CallExpr:
				if lit := shardRunLit(p, v, shardPkg); lit != nil {
					out = append(out, checkConcurrentBody(p, lit)...)
				}
			}
			return true
		})
	}
	return out
}

// shardRunLit returns the FuncLit callback of a shard.Run call,
// resolved through type information when available (so wrappers and
// aliases can't hide the call) and falling back to the syntactic
// matcher otherwise.
func shardRunLit(p *Package, call *ast.CallExpr, shardPkg string) *ast.FuncLit {
	if obj := p.calleeObj(call); obj != nil {
		if obj.Name() != "Run" || obj.Pkg() == nil || obj.Pkg().Path() != p.internalPkg("internal/shard") {
			return nil
		}
		if len(call.Args) == 0 {
			return nil
		}
		lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
		return lit
	}
	return shardRunCallback(call, shardPkg, p.Path)
}

// shardRunCallback returns the FuncLit argument of a shard.Run call
// (or Run inside package shard itself), nil otherwise.
func shardRunCallback(call *ast.CallExpr, shardPkg, pkgPath string) *ast.FuncLit {
	isRun := false
	if name, ok := pkgSelector(call.Fun, shardPkg); ok && name == "Run" {
		isRun = true
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "Run" && pkgPath == "internal/shard" {
		isRun = true
	}
	if !isRun || len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// checkConcurrentBody inspects one concurrent FuncLit for captured RNG
// draws and shared-slice appends. Nested go statements are skipped;
// the outer Inspect visits them as bodies of their own.
func checkConcurrentBody(p *Package, lit *ast.FuncLit) []Finding {
	locals := bodyLocals(lit)
	var out []Finding
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || !rngDrawMethods[sel.Sel.Name] {
				return true
			}
			if base := rootIdent(sel.X); base != "" && !locals[base] {
				out = append(out, p.finding("shardrng", v,
					fmt.Sprintf("%s draws from %q, an RNG stream captured from outside the concurrent body; derive per-shard streams with stats.RNG.Split by shard index before the fan-out and bind the shard's own locally", sel.Sel.Name, base)))
			}
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				fun, ok := call.Fun.(*ast.Ident)
				if !ok || fun.Name != "append" || i >= len(v.Lhs) {
					continue
				}
				dst, ok := v.Lhs[i].(*ast.Ident)
				if !ok || locals[dst.Name] {
					continue
				}
				out = append(out, p.finding("shardrng", v,
					fmt.Sprintf("append to %q, a slice captured from outside the concurrent body, reduces in completion order; write an indexed per-shard slot and concatenate in shard index order after the join", dst.Name)))
			}
		}
		return true
	})
	return out
}

// bodyLocals collects every identifier declared inside the FuncLit:
// parameters, := definitions, var specs and range variables.
func bodyLocals(lit *ast.FuncLit) map[string]bool {
	locals := map[string]bool{"_": true}
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				locals[name.Name] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
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
		case *ast.RangeStmt:
			if v.Tok == token.DEFINE {
				if id, ok := v.Key.(*ast.Ident); ok {
					locals[id.Name] = true
				}
				if id, ok := v.Value.(*ast.Ident); ok {
					locals[id.Name] = true
				}
			}
		}
		return true
	})
	return locals
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
