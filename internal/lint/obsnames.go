package lint

import (
	"fmt"
	"go/ast"
	"regexp"
	"sort"
	"strings"
)

// obsnames polices the metric namespace the obs registry serves. The
// namespace is flat and merged across arms and tenants, so it only
// stays navigable if every name follows one grammar and every dynamic
// dimension rides in a declared scope:
//
//   - names handed to Counter/Gauge/Histogram must be compile-time
//     constants matching lowercase.dotted_snake
//     ([a-z][a-z0-9_]* segments joined by dots), or a fmt.Sprintf
//     whose format uses only integer %d verbs (bounded families like
//     "tier%d_bytes") and matches the grammar once digits are
//     substituted. Anything else — "prefix_" + name concatenation,
//     %s verbs — drifts unboundedly with runtime strings and is
//     exactly how tenant/heat scope names diverged before this check;
//   - the "tenant." namespace is reserved for Scoped registries (the
//     engine scopes each tenant's metrics under "tenant.<name>."); a
//     flat name starting with it would collide with scoped metrics;
//   - Scoped prefixes must be namespace segments: a constant prefix
//     must match (segment.)+; a dynamic prefix must open with a
//     constant segment ending in "." and close with a constant ending
//     in "." (the `"tenant." + name + "."` idiom);
//   - one name, one kind: the same constant name registered as two of
//     counter/gauge/histogram anywhere in the tree is a collision
//     (the registry would hand out both, and Values() would let one
//     shadow the other's derived keys).
//
// The check is tree-wide and typed: calls resolve to the obs.Registry
// methods through the loader, so wrappers and field accesses
// (ctx.Obs.Gauge) are seen across packages. internal/obs itself is
// exempt — the registry's own plumbing forwards dynamic names by
// design.
func init() {
	Register(&Check{
		Name:    "obsnames",
		Doc:     "obs metric names must be constant (or %d-indexed Sprintf) lowercase.dotted_snake, kind-unique tree-wide, with tenant. reserved for Scoped prefixes",
		RunTree: runObsNames,
	})
}

// obsNameRE is the lowercase.dotted_snake grammar.
var obsNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// obsScopeRE is the grammar for a constant Scoped prefix: one or more
// segments, each closed by a dot.
var obsScopeRE = regexp.MustCompile(`^([a-z][a-z0-9_]*\.)+$`)

// obsReservedPrefix is the namespace owned by Scoped registries.
const obsReservedPrefix = "tenant."

// obsRegistration is one constant-name metric registration site.
type obsRegistration struct {
	name string
	kind string // "counter", "gauge", "histogram"
	pkg  *Package
	node ast.Node
}

func runObsNames(pkgs []*Package) []Finding {
	var out []Finding
	var regs []obsRegistration
	for _, p := range pkgs {
		if p.Path == "internal/obs" {
			continue
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				method, ok := obsRegistryMethod(p, call)
				if !ok {
					return true
				}
				arg := call.Args[0]
				switch method {
				case "Counter", "Gauge", "Histogram":
					kind := strings.ToLower(method)
					if name, isConst := p.constString(arg); isConst {
						out = append(out, checkObsName(p, arg, name)...)
						regs = append(regs, obsRegistration{name: name, kind: kind, pkg: p, node: arg})
					} else if format, isFam := obsSprintfFormat(p, arg); isFam {
						out = append(out, checkObsFamily(p, arg, format)...)
					} else {
						out = append(out, p.finding("obsnames", arg,
							fmt.Sprintf("obs %s name is built from non-constant strings; use a constant name, a %%d-indexed fmt.Sprintf family, or put the dynamic part in a Scoped registry prefix", kind)))
					}
				case "Scoped":
					out = append(out, checkObsScope(p, arg)...)
				}
				return true
			})
		}
	}
	out = append(out, obsKindCollisions(regs)...)
	return out
}

// obsRegistryMethod resolves call to an obs.Registry method name
// (Counter, Gauge, Histogram, Scoped); ok is false for anything else.
func obsRegistryMethod(p *Package, call *ast.CallExpr) (string, bool) {
	obj := p.calleeObj(call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != p.internalPkg("internal/obs") {
		return "", false
	}
	switch obj.Name() {
	case "Counter", "Gauge", "Histogram", "Scoped":
		return obj.Name(), true
	}
	return "", false
}

// checkObsName validates one constant metric name against the grammar
// and the reserved scope namespace.
func checkObsName(p *Package, n ast.Node, name string) []Finding {
	if strings.HasPrefix(name, obsReservedPrefix) {
		return []Finding{p.finding("obsnames", n,
			fmt.Sprintf("obs name %q opens the reserved %q namespace; create the metric through a Scoped(%q...) registry instead", name, obsReservedPrefix, obsReservedPrefix))}
	}
	if !obsNameRE.MatchString(name) {
		return []Finding{p.finding("obsnames", n,
			fmt.Sprintf("obs name %q does not match the lowercase.dotted_snake grammar ([a-z][a-z0-9_]* segments joined by dots)", name))}
	}
	return nil
}

// obsSprintfFormat returns the constant format string of a fmt.Sprintf
// call used in name position (ok=false otherwise).
func obsSprintfFormat(p *Package, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkgPath, name, ok := p.pkgRef(sel); !ok || pkgPath != "fmt" || name != "Sprintf" {
		return "", false
	}
	format, isConst := p.constString(call.Args[0])
	return format, isConst
}

// obsIntVerbRE matches an integer Sprintf verb (optional flags/width,
// d verb), the one dynamic form the grammar admits: integer indices
// are bounded and deterministic, unlike %s drift.
var obsIntVerbRE = regexp.MustCompile(`%[-+ 0#]*[0-9]*d`)

// checkObsFamily validates a Sprintf-formatted name family: only %d
// verbs, and the format must satisfy the grammar once each verb is
// replaced by a digit.
func checkObsFamily(p *Package, n ast.Node, format string) []Finding {
	stripped := obsIntVerbRE.ReplaceAllString(format, "0")
	if strings.Contains(stripped, "%") {
		return []Finding{p.finding("obsnames", n,
			fmt.Sprintf("obs name format %q uses non-integer verbs; only %%d families are bounded enough for metric names — put string dimensions in a Scoped registry prefix", format))}
	}
	return checkObsName(p, n, stripped)
}

// checkObsScope validates a Scoped prefix argument.
func checkObsScope(p *Package, arg ast.Expr) []Finding {
	if prefix, isConst := p.constString(arg); isConst {
		if !obsScopeRE.MatchString(prefix) {
			return []Finding{p.finding("obsnames", arg,
				fmt.Sprintf("obs scope prefix %q must be dot-terminated lowercase segments ((segment.)+, e.g. %q)", prefix, "tenant.a."))}
		}
		return nil
	}
	lead, leadOK := p.leadingString(arg)
	if i := strings.IndexByte(lead, '%'); i >= 0 {
		lead = lead[:i]
	}
	if !leadOK || !obsScopeRE.MatchString(lead) {
		return []Finding{p.finding("obsnames", arg,
			"obs scope prefix must open with a constant namespace segment ending in \".\" (the `\"tenant.\" + name + \".\"` idiom) so the static namespace tree stays enumerable")}
	}
	if last, ok := p.trailingString(arg); ok && !strings.HasSuffix(last, ".") {
		return []Finding{p.finding("obsnames", arg,
			fmt.Sprintf("obs scope prefix's trailing literal %q must end with \".\" so scoped names cannot fuse with the dynamic part", last))}
	}
	return nil
}

// trailingString extracts the rightmost compile-time literal of a
// string concatenation (ok=false when the tail is dynamic).
func (p *Package) trailingString(e ast.Expr) (string, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return p.leadingString(v)
	case *ast.BinaryExpr:
		return p.trailingString(v.Y)
	}
	return "", false
}

// obsKindCollisions reports every constant name registered under more
// than one metric kind.
func obsKindCollisions(regs []obsRegistration) []Finding {
	byName := map[string]map[string]bool{}
	for _, r := range regs {
		if byName[r.name] == nil {
			byName[r.name] = map[string]bool{}
		}
		byName[r.name][r.kind] = true
	}
	var out []Finding
	for _, r := range regs {
		kinds := byName[r.name]
		if len(kinds) < 2 {
			continue
		}
		names := make([]string, 0, len(kinds))
		for k := range kinds {
			names = append(names, k)
		}
		sort.Strings(names)
		out = append(out, r.pkg.finding("obsnames", r.node,
			fmt.Sprintf("obs name %q is registered as %s; one name must map to one metric kind tree-wide", r.name, strings.Join(names, " and "))))
	}
	return out
}
