// Package sarif renders static-analysis findings as a SARIF 2.1.0 log
// (Static Analysis Results Interchange Format), the format CI
// code-scanning consumers ingest. Only the subset the repo's analyzers
// produce is modeled: one run, one rule per check, one result per
// finding. Both `oblc vet -sarif` and `dfvet -format sarif` write through
// it.
package sarif

import (
	"encoding/json"
	"io"
)

// Rule declares one check in the run's rule registry. Declaring every
// check, fired or not, lets consumers tell "checked and clean" from "not
// checked".
type Rule struct {
	ID      string
	Summary string
	// Level is the rule's default level ("error", "warning" or "note");
	// empty omits the defaultConfiguration.
	Level string
}

// Result is one finding.
type Result struct {
	RuleID  string
	Level   string
	Message string
	// URI names the artifact the finding is in.
	URI string
	// Line and Column locate it; a Line of 0 omits the region, and a
	// Column of 0 omits the column.
	Line, Column int
}

type log struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []run  `json:"runs"`
}

type run struct {
	Tool    tool     `json:"tool"`
	Results []result `json:"results"`
}

type tool struct {
	Driver driver `json:"driver"`
}

type driver struct {
	Name  string `json:"name"`
	Rules []rule `json:"rules"`
}

type rule struct {
	ID               string  `json:"id"`
	ShortDescription message `json:"shortDescription"`
	Default          *config `json:"defaultConfiguration,omitempty"`
}

type config struct {
	Level string `json:"level"`
}

type message struct {
	Text string `json:"text"`
}

type result struct {
	RuleID    string     `json:"ruleId"`
	Level     string     `json:"level"`
	Message   message    `json:"message"`
	Locations []location `json:"locations"`
}

type location struct {
	PhysicalLocation physical `json:"physicalLocation"`
}

type physical struct {
	ArtifactLocation artifact `json:"artifactLocation"`
	Region           *region  `json:"region,omitempty"`
}

type artifact struct {
	URI string `json:"uri"`
}

type region struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// Write renders one run of the named tool, with rules and results in the
// order given, as indented JSON.
func Write(w io.Writer, toolName string, rules []Rule, results []Result) error {
	out := run{
		Tool:    tool{Driver: driver{Name: toolName, Rules: make([]rule, 0, len(rules))}},
		Results: make([]result, 0, len(results)),
	}
	for _, r := range rules {
		sr := rule{ID: r.ID, ShortDescription: message{Text: r.Summary}}
		if r.Level != "" {
			sr.Default = &config{Level: r.Level}
		}
		out.Tool.Driver.Rules = append(out.Tool.Driver.Rules, sr)
	}
	for _, r := range results {
		loc := location{PhysicalLocation: physical{ArtifactLocation: artifact{URI: r.URI}}}
		if r.Line > 0 {
			loc.PhysicalLocation.Region = &region{StartLine: r.Line, StartColumn: r.Column}
		}
		out.Results = append(out.Results, result{
			RuleID:    r.RuleID,
			Level:     r.Level,
			Message:   message{Text: r.Message},
			Locations: []location{loc},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []run{out},
	})
}
