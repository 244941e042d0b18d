package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// pkgRef resolves sel as a package-qualified reference: any alias of
// time.Now comes back as ("time", "Now", true). ok is false when the
// selector's base is not a package name (a variable, a field, a call).
func (p *Package) pkgRef(sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// exprType returns e's type as the type checker recorded it (nil for
// nodes it records elsewhere, such as defining identifiers).
func (p *Package) exprType(e ast.Expr) types.Type {
	return p.Info.Types[e].Type
}

// constString returns e's compile-time constant string value, folding
// concatenations and named constants the way the compiler does.
func (p *Package) constString(e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isMap reports whether e's type is a map, cross-package map returns
// and named map types included.
func (p *Package) isMap(e ast.Expr) bool {
	t := p.exprType(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// floatKind returns the name of e's basic float type ("float32" or
// "float64", named float types included), or "" when e is not a float.
func (p *Package) floatKind(e ast.Expr) string {
	t := p.exprType(e)
	if t == nil {
		return ""
	}
	if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
		return basic.Name()
	}
	return ""
}

// calleeObj resolves the function or method object a call invokes (nil
// for calls of function values the type checker records no object for).
func (p *Package) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// isBuiltin reports whether id is the predeclared builtin of that name.
// A user-defined function shadowing the builtin returns false.
func (p *Package) isBuiltin(id *ast.Ident) bool {
	_, ok := p.Info.Uses[id].(*types.Builtin)
	return ok
}

// internalPkg returns the import path of the repo-internal package dir
// ("internal/shard" -> "colloid/internal/shard" under the default
// module), so typed identity tests work in fixture trees and the real
// repository alike.
func (p *Package) internalPkg(dir string) string {
	return p.Module + "/" + dir
}
