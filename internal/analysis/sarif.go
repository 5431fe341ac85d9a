// SARIF 2.1.0 output for CI code-scanning annotations. The encoding is the
// minimal subset GitHub's upload-sarif action consumes: one run, one rule
// per analyzer, one result per diagnostic with a physical location whose URI
// is slash-relative to the module root.
package analysis

import (
	"encoding/json"
	"path/filepath"
	"strings"
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
	InformationURI string      `json:"informationUri,omitempty"`
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
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders diagnostics as a SARIF 2.1.0 log of errors. root is the
// module root file paths are made relative to; analyzers supplies the rule
// table.
func SARIF(diags []Diagnostic, analyzers []*Analyzer, root string) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{ID: metaCheck,
		ShortDescription: sarifMessage{Text: "hslint ignore-directive hygiene"}})

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		uri := d.Pos.Filename
		if rel, err := filepath.Rel(root, uri); err == nil && !strings.HasPrefix(rel, "..") {
			uri = rel
		}
		results = append(results, sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(uri)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "hslint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}
