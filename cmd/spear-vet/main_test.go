package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vetTool is the spear-vet binary TestMain builds from this package.
var vetTool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spear-vet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vetTool = filepath.Join(dir, "spear-vet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", vetTool, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building spear-vet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

// goVet runs `go vet -vettool=spear-vet` on the package from the module
// root and returns its combined output and exit code.
func goVet(t *testing.T, pkg string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+vetTool, pkg)
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

func TestRunCleanExitsZero(t *testing.T) {
	if out, code := goVet(t, "./internal/obs"); code != 0 || out != "" {
		t.Fatalf("exit = %d, want 0 and no output:\n%s", code, out)
	}
}

// TestRunFindingsExitOne vets the dirty errflow fixture: findings make the
// tool, and so go vet, exit 1, each printed relative to the module root.
func TestRunFindingsExitOne(t *testing.T) {
	out, code := goVet(t, "./internal/lint/testdata/src/errflow")
	if code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "\ninternal/lint/testdata/src/errflow/errflow.go:44:2: [errflow] ") {
		t.Errorf("output missing the fixture's first finding, module-relative:\n%s", out)
	}
}

// TestProtocolQueries pins the two queries the go command makes before it
// vets anything: the tool's flags (none) and its version, whose build ID
// keys the go command's cache of clean results.
func TestProtocolQueries(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-flags"}, &out, &errOut); code != 0 || out.String() != "[]\n" {
		t.Errorf("-flags: exit %d, stdout %q, stderr %q; want 0 and []", code, out.String(), errOut.String())
	}
	out.Reset()
	version := regexp.MustCompile(`^spear-vet version devel buildID=[0-9a-f]{64}\n$`)
	if code := run([]string{"-V=full"}, &out, &errOut); code != 0 || !version.MatchString(out.String()) {
		t.Errorf("-V=full: exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}
