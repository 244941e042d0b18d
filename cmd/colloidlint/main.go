// Command colloidlint runs the repo's in-tree static-analysis suite
// (internal/lint): stdlib-only analyzers, type-checked through a
// file-system loader, that enforce the simulator's determinism and
// convention contracts. It needs no module proxy, so it runs in CI
// environments where staticcheck's offline gate skips.
//
// Usage:
//
//	colloidlint [-list] [-checks determinism,maprange] [-json] [./...]
//
// Each argument is a directory tree to lint ("dir/..." and "dir" are
// equivalent; both walk recursively, skipping testdata, vendor and
// hidden directories). With no arguments it lints ./... — the whole
// repository when run from the root, which is how `make lint` invokes
// it. A subtree lints inside its module: ./internal/... reports exactly
// the ./... findings under internal/. Findings print as
//
//	file:line: [check] message
//
// with the file relative to the module root, or, under -json, as a JSON
// array of objects carrying the same fields. Any unsuppressed finding
// makes the exit status 1; a tree that does not parse or type-check, or
// a bad flag, makes it 2. A finding is suppressed only by a
// `//colloid:allow <check> <reason>` comment on the offending line or
// alone on the line above; the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"colloid/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("colloidlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered checks and exit")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.Checks() {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	checks, err := selectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, "colloidlint:", err)
		return 2
	}
	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"./..."}
	}
	var findings []lint.Finding
	for _, root := range roots {
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" || root == "." {
			root = "."
		}
		found, err := lint.TreeChecks(root, checks)
		if err != nil {
			fmt.Fprintln(stderr, "colloidlint:", err)
			return 2
		}
		findings = append(findings, found...)
	}
	if err := emit(stdout, findings, *jsonOut); err != nil {
		fmt.Fprintln(stderr, "colloidlint:", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "colloidlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// emit writes findings in text or JSON form.
func emit(stdout io.Writer, findings []lint.Finding, asJSON bool) error {
	if !asJSON {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
		return nil
	}
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:  f.Pos.Filename,
			Line:  f.Pos.Line,
			Check: f.Check,
			Msg:   f.Msg,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectChecks resolves the -checks flag against the registry.
func selectChecks(flagValue string) ([]*lint.Check, error) {
	all := lint.Checks()
	if flagValue == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Check, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*lint.Check
	for _, name := range strings.Split(flagValue, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(lint.CheckNames(), ", "))
		}
		out = append(out, c)
	}
	return out, nil
}
