package lint

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"
)

// determinism keeps ambient state out of simulation paths. Outside
// cmd/ — command-line drivers legitimately read the wall clock for
// elapsed-time UI, and the experiment runner's bench timing carries
// per-site //colloid:allow suppressions instead — it flags wall-clock
// reads, environment reads and the global math/rand generator.
//
// Outside internal/stats, which owns the splittable generator, it also
// flags the math/rand import and each of its constructors: RNGs must
// come from stats.RNG's Split/SplitString hierarchy. Splitting keeps
// experiment arms bit-stable when unrelated subsystems add or remove
// draws; a stray rand.New(rand.NewSource(seed)) couples every subsystem
// that shares its linear stream. The import is flagged too, so a
// violating file gets an actionable finding even when the constructor
// hides behind a helper.
func init() {
	Register(&Check{
		Name: "determinism",
		Doc:  "forbid wall-clock reads (time.Now/Since), global math/rand and environment reads outside cmd/, and math/rand imports and constructors outside internal/stats (RNGs come from stats.RNG Split APIs)",
		Run:  runDeterminism,
	})
}

// underCmd reports whether the package at the given root-relative path
// is a command-line driver, where clock, environment and global
// math/rand reads are allowed.
func underCmd(pkgPath string) bool {
	return strings.HasPrefix(pkgPath+"/", "cmd/")
}

// randConstructors are the math/rand entry points that build a private
// generator rather than draw from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// forbiddenEnvFuncs are the os package's environment reads: simulation
// behaviour must never depend on ambient process state.
var forbiddenEnvFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

func runDeterminism(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		// imported maps each watched package's local name to its path,
		// for selectors type information does not cover.
		imported := map[string]string{}
		for _, path := range []string{"time", "os", "math/rand", "math/rand/v2"} {
			if name := importName(file, path); name != "" {
				imported[name] = path
			}
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && (path == "math/rand" || path == "math/rand/v2") && p.Path != "internal/stats" {
				out = append(out, p.finding("determinism", imp,
					fmt.Sprintf("import of %s outside internal/stats; derive randomness from a stats.RNG stream (Split/SplitString)", path)))
			}
		}
		if len(imported) == 0 {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Typed-first: a resolved selector names its package
			// authoritatively (aliases included); a selector resolved to
			// a variable or field is definitely not one of ours.
			pkgPath, name, kind := p.pkgRef(sel)
			if kind == selUnknown {
				if base, ok := sel.X.(*ast.Ident); ok {
					pkgPath, name, kind = imported[base.Name], sel.Sel.Name, selPkg
				}
			}
			if kind == selPkg {
				if msg := determinismRef(p.Path, pkgPath, name); msg != "" {
					out = append(out, p.finding("determinism", sel, msg))
				}
			}
			return true
		})
	}
	return out
}

// determinismRef classifies one package-qualified reference made from
// the package at pkgDir, returning the finding's message ("" when the
// reference is allowed there).
func determinismRef(pkgDir, pkgPath, name string) string {
	switch pkgPath {
	case "time":
		if (name == "Now" || name == "Since" || name == "Until") && !underCmd(pkgDir) {
			return fmt.Sprintf("time.%s reads the wall clock; simulation-path code must use simulated time (sim quantum / Context time)", name)
		}
	case "os":
		if forbiddenEnvFuncs[name] && !underCmd(pkgDir) {
			return fmt.Sprintf("os.%s makes behaviour depend on ambient process state; thread configuration through Config values instead", name)
		}
	case "math/rand", "math/rand/v2":
		switch {
		case randConstructors[name] && pkgDir != "internal/stats":
			return fmt.Sprintf("rand.%s builds an RNG outside the stats.RNG split hierarchy; take a *stats.RNG (or a Split of one) instead", name)
		case !randConstructors[name] && !underCmd(pkgDir):
			return fmt.Sprintf("global math/rand (rand.%s) is seeded outside the experiment's control; draw from a stats.RNG stream instead", name)
		}
	}
	return ""
}
