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
	code := run(moduleRoot, []string{"internal/lint/testdata/src/floateq"}, "floateq", false, "", &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[floateq]") {
		t.Errorf("stdout missing [floateq] diagnostics:\n%s", out.String())
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
	// 13 checks: shape, align64 and gohygiene's loop-capture half could not
	// fire on this module and were removed; a 14th row needs the same case
	// made for it.
	if len(lint.AllChecks) != 13 {
		t.Errorf("AllChecks has %d entries, want 13: %v", len(lint.AllChecks), lint.AllChecks)
	}
	for _, gone := range []string{"shape", "align64"} {
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
// passes: the floateq fixture is dirty under floateq but clean under metrics.
func TestRunCheckSelector(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/lint/testdata/src/floateq"}, "metrics", false, "", &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("disabled checks still reported:\n%s", out.String())
	}
}

func TestRunJSONFindings(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/lint/testdata/src/floateq"}, "floateq", true, "", &out, &errOut)
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
	var timed []string
	for _, c := range rep.Checks {
		if c.Millis < 0 {
			t.Errorf("check %q has negative timing %v", c.Check, c.Millis)
		}
		timed = append(timed, c.Check)
	}
	for _, want := range []string{"load", "floateq"} {
		found := false
		for _, got := range timed {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Errorf("timings %v missing phase %q", timed, want)
		}
	}
}

// TestRunJSONCheckFindingCounts pins the per-check finding counts of the
// checks array: the dirty check carries its findings, the load row stays 0.
func TestRunJSONCheckFindingCounts(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(moduleRoot, []string{"internal/lint/testdata/src/floateq"}, "floateq,metrics", true, "", &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out.String())
	}
	counts := make(map[string]int)
	for _, c := range rep.Checks {
		counts[c.Check] = c.Findings
	}
	if counts["floateq"] != len(rep.Diagnostics) {
		t.Errorf("floateq findings = %d, want %d (all diagnostics)", counts["floateq"], len(rep.Diagnostics))
	}
	if counts["metrics"] != 0 {
		t.Errorf("metrics findings = %d, want 0", counts["metrics"])
	}
	if counts["load"] != 0 {
		t.Errorf("load row findings = %d, want 0", counts["load"])
	}
}

// TestRunSummaryLine pins the one-line stderr summary CI echoes on success.
func TestRunSummaryLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(moduleRoot, []string{"internal/obs"}, "metrics,floateq", false, "", &out, &errOut); code != 0 {
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
	code := run(moduleRoot, []string{"internal/lint/testdata/src/floateq"}, "floateq", false, sarifPath, &out, &errOut)
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
		if res.RuleID != "floateq" || res.Level != "error" {
			t.Errorf("result ruleId=%q level=%q, want floateq/error", res.RuleID, res.Level)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if !strings.HasPrefix(loc.ArtifactLocation.URI, "internal/lint/testdata/src/floateq/") {
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
