package lint

// SARIF 2.1.0 output: the minimal static-analysis log shape GitHub code
// scanning ingests. Only the fields the upload path actually reads are
// emitted — tool driver with one rule per check, and one error-level result
// per diagnostic with a physical location. Ordering is deterministic: rules
// follow the check table, results follow the (already sorted) diagnostic slice.

import (
	"encoding/json"
	"io"
	"path/filepath"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders the diagnostics as a SARIF 2.1.0 log on w, one run of
// the spear-vet driver with every check registered as a rule. File paths
// are emitted module-relative with forward slashes under the %SRCROOT%
// base, which is what the code-scanning upload resolves against the
// repository root.
func WriteSARIF(w io.Writer, diags []Diagnostic) error {
	rules := make([]sarifRule, len(checkTable))
	ruleIndex := make(map[string]int, len(checkTable))
	for i, c := range checkTable {
		rules[i] = sarifRule{ID: c.name, ShortDescription: sarifMessage{Text: c.desc}}
		ruleIndex[c.name] = i
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := ruleIndex[d.Check]
		if !ok {
			idx = -1
		}
		results = append(results, sarifResult{
			RuleID:    d.Check,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(d.File),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "spear-vet",
				InformationURI: "https://github.com/spear/spear",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
