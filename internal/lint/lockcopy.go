package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// lockcopy is the in-tree, offline replacement for go vet's copylocks:
// a value whose type transitively contains a sync.Mutex, sync.RWMutex,
// sync.WaitGroup, sync.Once, sync.Cond or a sync/atomic counter type
// must never be copied — the copy carries a detached lock/counter whose
// state silently diverges from the original, a bug that surfaces as a
// rare race or a wrong count instead of a compile error. go vet catches
// most of these but needs a module proxy for its toolchain wiring in
// some CI environments; this check runs wherever colloidlint runs.
//
// Flagged copy sites: passing such a value as a call argument,
// assigning it from an existing value (identifier, field, element or
// deref — fresh composite literals and function results initialize
// rather than copy), and binding it as a `range` value variable. Lock
// state is found through each value's type, however deeply it nests.
func init() {
	Register(&Check{
		Name: "lockcopy",
		Doc:  "flag by-value copies (call args, assignments, range values) of types containing sync.Mutex/RWMutex/WaitGroup/Once/Cond or sync/atomic types",
		Run:  runLockCopy,
	})
}

// syncNoCopyTypes are the sync package's by-reference-only types.
var syncNoCopyTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Pool": true, "Map": true,
}

func runLockCopy(p *Package) []Finding {
	seen := map[string]bool{}
	var out []Finding
	report := func(n ast.Node, how string, lock string) {
		f := p.finding("lockcopy", n,
			fmt.Sprintf("%s copies a value containing %s; share it through a pointer instead", how, lock))
		if key := f.String(); !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				if isBuiltinLockSafe(p, v) {
					return true
				}
				for _, arg := range v.Args {
					if !copiesExisting(arg) {
						continue
					}
					if lock := lockInType(p, p.exprType(arg)); lock != "" {
						report(arg, "passing this argument by value", lock)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range v.Rhs {
					if i < len(v.Lhs) && isBlank(v.Lhs[i]) {
						continue
					}
					if !copiesExisting(rhs) {
						continue
					}
					if lock := lockInType(p, p.exprType(rhs)); lock != "" {
						report(rhs, "this assignment", lock)
					}
				}
			case *ast.ValueSpec:
				for _, val := range v.Values {
					if !copiesExisting(val) {
						continue
					}
					if lock := lockInType(p, p.exprType(val)); lock != "" {
						report(val, "this declaration", lock)
					}
				}
			case *ast.RangeStmt:
				if v.Value != nil && !isBlank(v.Value) {
					if lock := lockInType(p, p.rangeValueType(v.Value)); lock != "" {
						report(v.Value, "binding the range value variable", lock)
					}
				}
			}
			return true
		})
	}
	return out
}

// rangeValueType resolves the type of a range statement's value
// variable: `:=`-defined identifiers live in Defs rather than Types.
func (p *Package) rangeValueType(e ast.Expr) types.Type {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return p.exprType(e)
}

// copiesExisting reports whether evaluating e yields an already-live
// value whose copy would detach lock state: an identifier, field
// selection, element access or pointer deref. Fresh values (composite
// literals, function results, conversions of fresh values) initialize
// rather than copy and are fine.
func copiesExisting(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name != "_"
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// isBuiltinLockSafe reports whether call is a builtin that does not
// copy its operands' lock state (len, cap, new, delete, ...). append
// genuinely copies elements and stays flagged.
func isBuiltinLockSafe(p *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	switch id.Name {
	case "len", "cap", "new", "delete", "clear", "print", "println":
		return p.isBuiltin(id)
	}
	return false
}

// lockInType returns a printable description of the first
// by-reference-only component found inside t ("" when t is clean or
// nil). Pointers, slices, maps, channels, funcs and interfaces stop the
// descent: values behind them are shared, not copied.
func lockInType(p *Package, t types.Type) string {
	return lockIn(t, map[types.Type]bool{})
}

func lockIn(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync":
				if syncNoCopyTypes[obj.Name()] {
					return "sync." + obj.Name()
				}
			case "sync/atomic":
				return "atomic." + obj.Name()
			}
		}
		return lockIn(named.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lock := lockIn(u.Field(i).Type(), seen); lock != "" {
				return lock
			}
		}
	case *types.Array:
		return lockIn(u.Elem(), seen)
	}
	return ""
}
