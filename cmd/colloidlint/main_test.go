package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDirtyTree materializes a module tree with one determinism
// violation (a time.Now in internal/) and returns its root.
func writeDirtyTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "p")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\nimport \"time\"\n\n// Now reads the clock.\nfunc Now() float64 { return float64(time.Now().UnixNano()) }\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestListChecks(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d (stderr %q)", code, errOut.String())
	}
	for _, name := range []string{"determinism", "gocapture", "maprange", "msgprefix"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-checks", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown -checks exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown check "nope"`) {
		t.Errorf("stderr %q does not name the unknown check", errOut.String())
	}
}

// TestExitStatus drives the binary's contract: nonzero with findings
// (a known-bad fixture placed in-tree), zero on a clean tree.
func TestExitStatus(t *testing.T) {
	dirty := t.TempDir()
	bad, err := os.ReadFile(filepath.Join("..", "..", "internal", "lint", "testdata", "src", "internal", "simbad", "bad_determinism.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dirty, "internal", "simbad"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirty, "internal", "simbad", "bad.go"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{dirty + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("dirty tree exited %d, want 1 (stdout %q, stderr %q)", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[determinism]") {
		t.Errorf("findings missing determinism hit:\n%s", out.String())
	}

	clean := t.TempDir()
	if err := os.MkdirAll(filepath.Join(clean, "internal", "ok"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package ok\n\n// V is fixture data.\nvar V = 1\n"
	if err := os.WriteFile(filepath.Join(clean, "internal", "ok", "ok.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{clean + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("clean tree exited %d (stdout %q, stderr %q)", code, out.String(), errOut.String())
	}
}

// TestLoadErrorExit pins the load-failure status: a tree that does not
// type-check exits 2, with the loader's file:line error on stderr,
// rather than 1 as findings do.
func TestLoadErrorExit(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "p")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\n// Twice doubles an undefined value.\nfunc Twice() int { return 2 * x }\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{root + "/..."}, &out, &errOut); code != 2 {
		t.Fatalf("ill-typed tree exited %d, want 2 (stdout %q, stderr %q)", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "lint: internal/p/p.go:4:") {
		t.Errorf("stderr %q does not name the ill-typed file and line", errOut.String())
	}
}

// TestSubtreeLintsInModule drives subtree arguments on a module tree: a
// clock read under cmd/ (allowed there) and a msgprefix suppression
// under internal/ (needed there) must give, for ./cmd/... and
// ./internal/..., exactly the ./... findings under that directory, with
// the same module-relative paths.
func TestSubtreeLintsInModule(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tree\n\ngo 1.22\n",
		"cmd/tool/main.go": `package main

import (
	"fmt"
	"time"

	"tree/internal/p"
)

func main() {
	start := time.Now()
	fmt.Println(p.Fail(), time.Since(start))
}
`,
		"internal/p/p.go": `package p

import (
	"errors"
	"os"
)

// Fail returns an unprefixed error on purpose.
func Fail() error {
	return errors.New("bad") //colloid:allow msgprefix fixture keeps the bare message
}

// Env reads ambient state.
func Env() string { return os.Getenv("HOME") }
`,
	}
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lintJSON := func(t *testing.T, arg string) []jsonFinding {
		t.Helper()
		var out, errOut strings.Builder
		if code := run([]string{"-json", arg}, &out, &errOut); code > 1 {
			t.Fatalf("%s exited %d (stderr %q)", arg, code, errOut.String())
		}
		var findings []jsonFinding
		if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
			t.Fatalf("%s: -json output is not a JSON array: %v\n%s", arg, err, out.String())
		}
		return findings
	}
	all := lintJSON(t, root+"/...")
	if len(all) != 1 || all[0].File != "internal/p/p.go" || !strings.Contains(all[0].Msg, "os.Getenv") {
		t.Fatalf("./... want the one os.Getenv finding, got %+v", all)
	}
	for _, sub := range []string{"cmd", "internal"} {
		t.Run(sub, func(t *testing.T) {
			var want []jsonFinding
			for _, f := range all {
				if strings.HasPrefix(f.File, sub+"/") {
					want = append(want, f)
				}
			}
			got := lintJSON(t, filepath.Join(root, sub)+"/...")
			if len(got) != len(want) {
				t.Fatalf("./%s/... = %+v, want the ./... findings under %s/: %+v", sub, got, sub, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("./%s/... finding %d = %+v, want %+v", sub, i, got[i], want[i])
				}
			}
		})
	}
}

// TestJSONOutput drives -json: findings arrive as a JSON array of
// file/line/check/msg objects.
func TestJSONOutput(t *testing.T) {
	root := writeDirtyTree(t)
	var out, errOut strings.Builder
	if code := run([]string{"-json", root + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("dirty -json run exited %d, want 1 (stderr %q)", code, errOut.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("want 1 finding, got %+v", findings)
	}
	f := findings[0]
	if f.Check != "determinism" || f.Line == 0 || !strings.Contains(f.File, "p.go") {
		t.Errorf("finding fields wrong: %+v", f)
	}
}

// TestChecksSubset confirms -checks restricts the suite: a file that
// trips determinism passes when only msgprefix runs.
func TestChecksSubset(t *testing.T) {
	root := writeDirtyTree(t)
	var out, errOut strings.Builder
	if code := run([]string{"-checks", "msgprefix", root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("msgprefix-only run exited %d (stdout %q)", code, out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-checks", "determinism", root + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("determinism-only run exited %d, want 1", code)
	}
}
