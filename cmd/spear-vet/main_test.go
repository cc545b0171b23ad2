package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear/internal/lint"
)

// moduleRoot lets the tests resolve patterns exactly like a repo-root
// invocation would.
const moduleRoot = "../.."

func TestRunCleanExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(moduleRoot, []string{"internal/obs"}, "", false, "", &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", out.String())
	}
}

func TestRunFindingsExitOne(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/lint/testdata/src/errflow"}, "errflow", false, "", &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[errflow]") {
		t.Errorf("stdout missing [errflow] diagnostics:\n%s", out.String())
	}
}

func TestRunLoadErrorExitTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/lint/testdata/src/broken"}, "", false, "", &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "spear-vet:") {
		t.Errorf("stderr missing load error:\n%s", errOut.String())
	}
}

// TestListChecks pins the -list catalog: one row per registered check, each
// with a description, and the marker grammar printed for the checks that
// consume annotations.
func TestListChecks(t *testing.T) {
	var out bytes.Buffer
	listChecks(&out)
	text := out.String()
	for _, name := range lint.AllChecks {
		if !strings.Contains(text, name) {
			t.Errorf("-list output missing check %q:\n%s", name, text)
		}
	}
	for _, marker := range []string{"spear:ignoreerr(reason)", "spear:nopoll(reason)", "spear:guardedby(mu)"} {
		if !strings.Contains(text, marker) {
			t.Errorf("-list output missing marker grammar %q:\n%s", marker, text)
		}
	}
	if len(lint.Checks()) != len(lint.AllChecks) {
		t.Errorf("Checks() has %d entries, AllChecks has %d", len(lint.Checks()), len(lint.AllChecks))
	}
	// 8 checks: every check outside the concurrency discipline has a seeded
	// defect in lint's TestMutationRows, and the checks that had none were
	// removed (DESIGN.md §11). A 9th row needs the same case made for it.
	if len(lint.AllChecks) != 8 {
		t.Errorf("AllChecks has %d entries, want 8: %v", len(lint.AllChecks), lint.AllChecks)
	}
	for _, gone := range []string{"shape", "align64", "floateq"} {
		if _, err := lint.NewRunner(moduleRoot, lint.Config{Checks: []string{gone}}); err == nil {
			t.Errorf("removed check %q is still accepted by -check", gone)
		}
	}
}

func TestRunUnknownCheckExitTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/obs"}, "nosuchcheck", false, "", &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "unknown check") {
		t.Errorf("stderr missing unknown-check error:\n%s", errOut.String())
	}
}

// TestRunCheckSelector pins down that -check restricts the run to the named
// passes: the errflow fixture is dirty under errflow but clean under metrics.
func TestRunCheckSelector(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/lint/testdata/src/errflow"}, "metrics", false, "", &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("disabled checks still reported:\n%s", out.String())
	}
}

func TestRunJSONFindings(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/lint/testdata/src/errflow"}, "errflow", true, "", &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out.String())
	}
	if len(rep.Diagnostics) == 0 {
		t.Fatal("diagnostics array is empty, want findings")
	}
	for _, d := range rep.Diagnostics {
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Check == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
	if rep.PackagesLoaded < 1 {
		t.Errorf("packages_loaded = %d, want >= 1", rep.PackagesLoaded)
	}
}

// TestRunSummaryLine pins the one-line stderr summary CI echoes on success.
func TestRunSummaryLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(moduleRoot, []string{"internal/obs"}, "metrics,errflow", false, "", &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	if want := "spear-vet: 0 findings across 2 checks, 1 packages\n"; errOut.String() != want {
		t.Errorf("summary = %q, want %q", errOut.String(), want)
	}
}

// TestRunSARIF runs a dirty fixture with -sarif and checks the log shape:
// version, driver name, a rules table covering every check, and one
// error-level result per diagnostic with a module-relative location.
func TestRunSARIF(t *testing.T) {
	var out, errOut bytes.Buffer
	sarifPath := filepath.Join(t.TempDir(), "vet.sarif")
	code := run(moduleRoot, []string{"internal/lint/testdata/src/errflow"}, "errflow", false, sarifPath, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF file is not JSON: %v\n%s", err, data)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "spear-vet" {
		t.Errorf("driver name = %q, want spear-vet", r.Tool.Driver.Name)
	}
	if len(r.Tool.Driver.Rules) != len(lint.AllChecks) {
		t.Errorf("rules = %d, want %d (one per check)", len(r.Tool.Driver.Rules), len(lint.AllChecks))
	}
	if len(r.Results) == 0 {
		t.Fatal("SARIF results are empty, want findings")
	}
	for _, res := range r.Results {
		if res.RuleID != "errflow" || res.Level != "error" {
			t.Errorf("result ruleId=%q level=%q, want errflow/error", res.RuleID, res.Level)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if !strings.HasPrefix(loc.ArtifactLocation.URI, "internal/lint/testdata/src/errflow/") {
			t.Errorf("artifact uri = %q, want module-relative fixture path", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine == 0 {
			t.Errorf("result missing startLine: %+v", loc)
		}
	}
}

func TestRunJSONCleanIsEmptyDiagnostics(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(moduleRoot, []string{"internal/obs"}, "metrics", true, "", &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	var rep struct {
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out.String())
	}
	if rep.Diagnostics == nil {
		t.Error(`clean -json report has "diagnostics": null, want []`)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("clean run reported diagnostics: %+v", rep.Diagnostics)
	}
}
