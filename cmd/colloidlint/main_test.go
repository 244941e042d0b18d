package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDirtyTree materializes a module tree with one determinism
// violation (a time.Now in internal/) and returns its root and the
// violating file's path.
func writeDirtyTree(t *testing.T) (root, badFile string) {
	t.Helper()
	root = t.TempDir()
	dir := filepath.Join(root, "internal", "p")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\nimport \"time\"\n\n// Now reads the clock.\nfunc Now() float64 { return float64(time.Now().UnixNano()) }\n"
	badFile = filepath.Join(dir, "p.go")
	if err := os.WriteFile(badFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root, badFile
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

// TestJSONOutput drives -json: findings arrive as a JSON array whose
// objects carry the content-addressed id alongside file/line/check/msg.
func TestJSONOutput(t *testing.T) {
	root, _ := writeDirtyTree(t)
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
	if len(f.ID) != 16 {
		t.Errorf("id %q is not a 16-hex content address", f.ID)
	}
}

// TestUpdateBaselineRequiresPath pins the flag contract: -update-baseline
// without -baseline is a usage error.
func TestUpdateBaselineRequiresPath(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-update-baseline"}, &out, &errOut); code != 2 {
		t.Fatalf("-update-baseline without -baseline exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "requires -baseline") {
		t.Errorf("stderr %q does not explain the missing flag", errOut.String())
	}
}

// TestBaselineLifecycle drives the full baseline loop: -update-baseline
// acknowledges today's findings, -baseline then passes the unchanged
// tree, reports entries as stale once the debt is fixed, and still
// fails on findings outside the baseline.
func TestBaselineLifecycle(t *testing.T) {
	root, badFile := writeDirtyTree(t)
	baseline := filepath.Join(t.TempDir(), "lint.baseline.json")

	var out, errOut strings.Builder
	if code := run([]string{"-baseline", baseline, "-update-baseline", root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("-update-baseline exited %d (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "wrote 1 finding(s)") {
		t.Errorf("stderr %q does not report the written count", errOut.String())
	}

	// The same tree now passes: the finding is acknowledged debt.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", baseline, root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("baselined tree exited %d (stdout %q, stderr %q)", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "1 finding(s) acknowledged") {
		t.Errorf("stderr %q does not report the acknowledged count", errOut.String())
	}

	// A second, non-baselined violation still fails the run.
	extra := filepath.Join(root, "internal", "p", "q.go")
	src := "package p\n\nimport \"os\"\n\n// Env reads ambient state.\nfunc Env() string { return os.Getenv(\"HOME\") }\n"
	if err := os.WriteFile(extra, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", baseline, root + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("new finding over baseline exited %d, want 1", code)
	}
	if !strings.Contains(out.String(), "os.Getenv") || strings.Contains(out.String(), "time.Now") {
		t.Errorf("only the fresh finding should print, got:\n%s", out.String())
	}

	// Fixing the baselined debt flips its entry to stale (reported on
	// stderr for cleanup, not a failure).
	if err := os.Remove(extra); err != nil {
		t.Fatal(err)
	}
	clean := "package p\n\n// Now is fixed.\nfunc Now() float64 { return 0 }\n"
	if err := os.WriteFile(badFile, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", baseline, root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("fixed tree exited %d (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "no longer fires") {
		t.Errorf("stderr %q does not flag the stale baseline entry", errOut.String())
	}
}

// TestChecksSubset confirms -checks restricts the suite: a file that
// trips determinism passes when only msgprefix runs.
func TestChecksSubset(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal", "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\nimport \"time\"\n\n// Now reads the clock.\nfunc Now() float64 { return float64(time.Now().UnixNano()) }\n"
	if err := os.WriteFile(filepath.Join(root, "internal", "p", "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
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
