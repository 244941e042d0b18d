// Package lint is colloid's in-tree static-analysis framework: a
// stdlib-only (go/parser, go/types, go/token — no module proxy, no
// go/packages) analyzer harness that enforces the simulator's
// determinism and convention contracts at `make ci` time.
//
// The whole value of this reproduction rests on bit-identical
// determinism: parallel==serial runner identity, scenario replay
// identity and the golden placement-trace checksums all assume that no
// simulation-path code ever consults wall clocks, global math/rand, the
// process environment, or Go's randomized map-iteration order. Those
// invariants used to be enforced only by convention and by
// after-the-fact golden tests; the checks registered here catch
// violations at lint time, on every PR, instead of when a golden
// checksum mysteriously drifts.
//
// Since the typed rebuild, every package is loaded through one shared
// type-checked loader (see load.go): checks see resolved types.Objects
// — an aliased time import, a cross-package map return, a mutex buried
// three structs deep — instead of raw identifiers, and a tree-wide
// check (obsnames) correlates facts across packages. Type checking is
// best-effort: where resolution fails (fixture trees reference packages
// that are not there), checks fall back to the original syntactic
// analysis, so a partial tree still lints.
//
// A finding can be suppressed in-source with
//
//	//colloid:allow <check> <reason>
//
// either trailing the offending line or alone on the line directly
// above it. The reason string is mandatory: a bare suppression is
// itself reported (as check "suppression"), so every exemption carries
// its rationale next to the code it exempts. A suppression whose check
// no longer fires on its line is reported too (as check "staleallow"),
// so exemptions cannot outlive the code they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer hit: a position, the check that fired and a
// human-readable message.
type Finding struct {
	// Pos locates the offending node (file path as parsed, 1-based
	// line).
	Pos token.Position
	// Check names the analyzer that produced the finding.
	Check string
	// Msg explains the violation.
	Msg string
}

// String renders the canonical `file:line: [check] message` form the
// driver prints and the golden test asserts.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Package is one parsed, type-checked, non-test Go package handed to
// each check.
type Package struct {
	// Path is the slash-separated directory path relative to the lint
	// root ("internal/core", "cmd/colloidsim"). Checks use it for
	// package allowlists.
	Path string
	// Module is the module path the tree was loaded under ("colloid"
	// unless the root's go.mod says otherwise); Path appended to it
	// gives the package's import path.
	Module string
	// Name is the package clause name ("core").
	Name string
	// Fset positions every node in Files. One fileset is shared by all
	// packages of a run.
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package (possibly marked incomplete
	// when the tree is partial; never nil after loading).
	Types *types.Package
	// Info holds the resolved identifier uses, definitions, expression
	// types and selections. Lookups that miss mean "no type information
	// here" and checks must degrade to syntax.
	Info *types.Info
}

// Check is one registered analyzer. Exactly one of Run and RunTree is
// set: Run inspects a single package, RunTree sees every package of the
// run at once (for cross-package facts such as metric-name
// collisions). The staleallow check sets
// neither — it is implemented by the harness itself, which owns the
// suppression table.
type Check struct {
	// Name tags findings and is the token suppression comments refer
	// to.
	Name string
	// Doc is a one-line description for `colloidlint -list`.
	Doc string
	// Run inspects one package and returns its findings.
	Run func(p *Package) []Finding
	// RunTree inspects the whole loaded tree at once.
	RunTree func(pkgs []*Package) []Finding
}

// registry holds the built-in checks in registration order.
var registry []*Check

// Register adds a check to the suite run by Lint. It panics on a
// duplicate name so a copy-pasted check cannot silently shadow another.
func Register(c *Check) {
	for _, have := range registry {
		if have.Name == c.Name {
			panic("lint: duplicate check " + c.Name)
		}
	}
	registry = append(registry, c)
}

// Checks returns the registered checks sorted by name.
func Checks() []*Check {
	out := append([]*Check(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CheckNames returns the registered check names, sorted.
func CheckNames() []string {
	names := make([]string, 0, len(registry))
	for _, c := range registry {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// SuppressionCheck is the pseudo-check name used for findings about the
// suppression comments themselves (bare allow without a reason, unknown
// check name). It cannot be suppressed.
const SuppressionCheck = "suppression"

// StaleAllowCheck names the harness-implemented check that reports
// //colloid:allow directives whose check no longer fires on their line.
const StaleAllowCheck = "staleallow"

// allowDirective is the comment prefix that suppresses a finding.
const allowDirective = "//colloid:allow"

// suppression is one parsed //colloid:allow comment.
type suppression struct {
	pos    token.Position
	check  string
	reason string
	used   bool
}

// parseSuppressions extracts every //colloid:allow directive from a
// parsed file, keyed by the line it applies to. A directive applies to
// its own line when it trails code, and to the following line when it
// stands alone.
func parseSuppressions(fset *token.FileSet, file *ast.File, known map[string]bool) (bySite map[string][]*suppression, all []*suppression, problems []Finding) {
	bySite = make(map[string][]*suppression)
	for _, group := range file.Comments {
		for _, c := range group.List {
			text := c.Text
			if !strings.HasPrefix(text, allowDirective) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(text, allowDirective)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				// "//colloid:allowed" or similar — not ours.
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				problems = append(problems, Finding{
					Pos:   pos,
					Check: SuppressionCheck,
					Msg:   "colloid:allow without a check name (want //colloid:allow <check> <reason>)",
				})
				continue
			}
			check := fields[0]
			if !known[check] {
				problems = append(problems, Finding{
					Pos:   pos,
					Check: SuppressionCheck,
					Msg: fmt.Sprintf("colloid:allow names unknown check %q (have %s)",
						check, strings.Join(sortedKeys(known), ", ")),
				})
				continue
			}
			if len(fields) == 1 {
				problems = append(problems, Finding{
					Pos:   pos,
					Check: SuppressionCheck,
					Msg: fmt.Sprintf("colloid:allow %s has no reason; every exemption must say why (//colloid:allow %s <reason>)",
						check, check),
				})
				continue
			}
			s := &suppression{pos: pos, check: check, reason: strings.Join(fields[1:], " ")}
			all = append(all, s)
			// A trailing comment suppresses its own line; a standalone
			// comment suppresses the next line. Registering both sites
			// covers either placement without tracking code layout.
			for _, line := range []int{pos.Line, pos.Line + 1} {
				key := siteKey(pos.Filename, line)
				bySite[key] = append(bySite[key], s)
			}
		}
	}
	return bySite, all, problems
}

func siteKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Tree lints every non-test package under root (skipping testdata,
// hidden directories and vendor) with the registered checks and returns
// the surviving findings sorted by position. Paths in the findings are
// relative to root.
func Tree(root string) ([]Finding, error) {
	return TreeChecks(root, Checks())
}

// TreeChecks is Tree with an explicit check list (used by tests and by
// the driver's -checks flag). All packages load — and type-check —
// before any check runs, so tree-wide checks see the full picture.
func TreeChecks(root string, checks []*Check) ([]Finding, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		pkg, err := l.pkg(rel)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return runChecks(pkgs, checks), nil
}

// runChecks runs the selected checks over the loaded tree, applies
// suppressions, reports problems with the suppression comments
// themselves, and — when the staleallow check is selected — reports
// directives no selected check still needs.
func runChecks(pkgs []*Package, checks []*Check) []Finding {
	known := make(map[string]bool, len(registry))
	for _, c := range registry {
		known[c.Name] = true
	}
	bySite := make(map[string][]*suppression)
	var suppressions []*suppression
	var out []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			sites, all, problems := parseSuppressions(pkg.Fset, file, known)
			for k, v := range sites {
				bySite[k] = append(bySite[k], v...)
			}
			suppressions = append(suppressions, all...)
			out = append(out, problems...)
		}
	}
	selected := make(map[string]bool, len(checks))
	for _, c := range checks {
		selected[c.Name] = true
		var found []Finding
		switch {
		case c.Run != nil:
			for _, pkg := range pkgs {
				found = append(found, c.Run(pkg)...)
			}
		case c.RunTree != nil:
			found = c.RunTree(pkgs)
		}
		for _, f := range found {
			if !suppressed(bySite, f) {
				out = append(out, f)
			}
		}
	}
	if selected[StaleAllowCheck] {
		for _, f := range staleSuppressions(suppressions, selected) {
			if !suppressed(bySite, f) {
				out = append(out, f)
			}
		}
	}
	sortFindings(out)
	return out
}

// staleSuppressions reports every directive whose check ran in this
// invocation but no longer fires on the directive's line. Directives
// for checks outside the selected subset are left alone (their check
// did not get a chance to fire), as are staleallow directives
// themselves (their target findings are produced by this very pass).
func staleSuppressions(suppressions []*suppression, selected map[string]bool) []Finding {
	var out []Finding
	for _, s := range suppressions {
		if s.used || !selected[s.check] || s.check == StaleAllowCheck {
			continue
		}
		out = append(out, Finding{
			Pos:   s.pos,
			Check: StaleAllowCheck,
			Msg: fmt.Sprintf("colloid:allow %s no longer suppresses anything on this line; delete the directive (reason was %q)",
				s.check, s.reason),
		})
	}
	return out
}

// suppressed reports whether a matching //colloid:allow covers the
// finding's line, marking the directive used.
func suppressed(bySite map[string][]*suppression, f Finding) bool {
	for _, s := range bySite[siteKey(f.Pos.Filename, f.Pos.Line)] {
		if s.check == f.Check {
			s.used = true
			return true
		}
	}
	return false
}

// packageDirs walks root and returns every directory that may hold a
// lintable package, in sorted order.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}
