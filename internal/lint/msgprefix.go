package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// msgprefix enforces the diagnostic-message convention established
// across the internal packages: every panic message, fmt.Errorf format
// and errors.New literal starts with "<pkg>: " so a failure anywhere in
// a stacked simulation immediately names the subsystem that raised it.
//
// Only compile-time-visible literals are checked. Messages whose prefix
// is dynamic — panic(err) re-raises, formats beginning with a verb such
// as "%w (%v)" where the prefix rides in from the wrapped error — are
// skipped rather than guessed at.
func init() {
	Register(&Check{
		Name: "msgprefix",
		Doc:  "panic/fmt.Errorf/errors.New literals in internal packages must start with the \"<pkg>: \" prefix",
		Run:  runMsgPrefix,
	})
}

func runMsgPrefix(p *Package) []Finding {
	if !strings.HasPrefix(p.Path, "internal/") {
		return nil
	}
	want := p.Name + ": "
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			var kind string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				// Only the predeclared panic builtin; a shadowing local
				// function resolves to a non-builtin object and is skipped.
				if fun.Name == "panic" && p.isBuiltin(fun) {
					kind = "panic"
				}
			case *ast.SelectorExpr:
				if pkgPath, name, ok := p.pkgRef(fun); ok {
					if pkgPath == "fmt" && name == "Errorf" {
						kind = "fmt.Errorf"
					} else if pkgPath == "errors" && name == "New" {
						kind = "errors.New"
					}
				}
			}
			if kind == "" {
				return true
			}
			lit, ok := p.leadingString(call.Args[0])
			if !ok || strings.HasPrefix(lit, "%") || strings.HasPrefix(lit, want) {
				return true
			}
			out = append(out, p.finding("msgprefix", call,
				fmt.Sprintf("%s message %q must start with %q so failures name their subsystem", kind, truncate(lit, 40), want)))
			return true
		})
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
