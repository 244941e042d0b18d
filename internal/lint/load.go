package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// defaultModule is the module path assumed when the lint root carries no
// go.mod (fixture trees, injected-violation probes). It matches the real
// repository so module-local import paths resolve identically in both.
const defaultModule = "colloid"

// loader parses and type-checks every package of one lint run. It is
// the typed core of the framework: packages load once, type-check once,
// and are shared between the per-package checks, the tree-wide check
// (obsnames) and the importer that resolves module-local imports — so a
// check asking "what object is this identifier?" costs a map lookup,
// not a re-parse.
//
// Type checking is strict: the first parse or type error ends the load,
// so every check reads complete type information. A fixture or probe
// tree therefore carries stand-ins for the module-local packages it
// imports.
type loader struct {
	root    string
	module  string
	fset    *token.FileSet
	pkgs    map[string]*Package // keyed by root-relative slash path; nil entry = no Go files
	loading map[string]bool     // import-cycle guard
}

func newLoader(root string) *loader {
	return &loader{
		root:    root,
		module:  moduleName(root),
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// moduleName reads the module path from root's go.mod, defaulting to
// defaultModule when the tree has none.
func moduleName(root string) string {
	src, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return defaultModule
	}
	if m := moduleRE.FindSubmatch(src); m != nil {
		return string(m[1])
	}
	return defaultModule
}

// pkg loads (or returns the cached) package in the root-relative
// directory rel ("" = root). The returned package is parsed with
// comments and type-checked; nil with a nil error means the directory
// holds no non-test Go files.
func (l *loader) pkg(rel string) (*Package, error) {
	if p, ok := l.pkgs[rel]; ok {
		return p, nil
	}
	if l.loading[rel] {
		return nil, fmt.Errorf("lint: import cycle through %q", rel)
	}
	l.loading[rel] = true
	defer delete(l.loading, rel)
	p, err := l.parse(rel)
	if err != nil {
		return nil, err
	}
	if p != nil {
		if err := l.typecheck(p); err != nil {
			return nil, err
		}
	}
	l.pkgs[rel] = p
	return p, nil
}

// parse reads rel's non-test Go files into a Package (nil when the
// directory holds none). File paths in the fileset are relative to root
// so findings print stably regardless of the working directory.
func (l *loader) parse(rel string) (*Package, error) {
	dir := l.root
	if rel != "" {
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	pkg := &Package{
		Path:   rel,
		Module: l.module,
		Fset:   l.fset,
	}
	for _, n := range names {
		relFile := filepath.ToSlash(filepath.Join(rel, n))
		src, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(l.fset, relFile, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if pkg.Name == "" {
			pkg.Name = file.Name.Name
		}
		pkg.Files = append(pkg.Files, file)
	}
	return pkg, nil
}

// typecheck runs go/types over the parsed files and returns its first
// error, positioned at the offending file and line.
func (l *loader) typecheck(p *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*treeImporter)(l)}
	path := l.module
	if p.Path != "" {
		path = l.module + "/" + p.Path
	}
	tpkg, err := conf.Check(path, l.fset, p.Files, info)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	p.Types = tpkg
	p.Info = info
	return nil
}

// treeImporter resolves imports for the type checker: module-local
// paths load through the same per-run cache the checks read, everything
// else goes to the shared standard-library source importer.
type treeImporter loader

// Import implements types.Importer.
func (t *treeImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(t)
	rel, local := "", path == l.module
	if !local {
		if r, ok := strings.CutPrefix(path, l.module+"/"); ok {
			rel, local = r, true
		}
	}
	if local {
		p, err := l.pkg(rel)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no package in %q", rel)
		}
		return p.Types, nil
	}
	return stdImport(path)
}

// The standard library importer is shared process-wide: it type-checks
// GOROOT source (no module proxy, no compiled export data needed) and
// caching its packages across lint runs keeps repeated Tree calls in
// tests from re-checking fmt's transitive closure every time.
var (
	stdMu  sync.Mutex
	stdImp types.Importer
)

func stdImport(path string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	if stdImp == nil {
		stdImp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return stdImp.Import(path)
}
