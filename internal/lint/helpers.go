package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

// leadingString extracts the leading compile-time string of an
// expression: a string literal, the leftmost literal of a `"lit" + x`
// concatenation, or the format literal of a fmt.Sprintf call. The
// second result is false when no literal prefix is visible statically.
func (p *Package) leadingString(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		return p.leadingString(v.X)
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok && len(v.Args) > 0 {
			if path, name, ok := p.pkgRef(sel); ok && path == "fmt" && name == "Sprintf" {
				return p.leadingString(v.Args[0])
			}
		}
	case *ast.ParenExpr:
		return p.leadingString(v.X)
	}
	return "", false
}

// finding builds a Finding positioned at n.
func (p *Package) finding(check string, n ast.Node, msg string) Finding {
	return Finding{Pos: p.Fset.Position(n.Pos()), Check: check, Msg: msg}
}
