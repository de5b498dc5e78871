package analysis

import (
	"io"

	"repro/internal/sarif"
)

func sarifLevel(s Severity) string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "note"
	}
}

// RenderSARIF writes the diagnostics as a SARIF 2.1.0 log. Every stable
// diagnostic code appears in the rule registry whether or not it fired, so
// consumers can distinguish "checked and clean" from "not checked".
func RenderSARIF(w io.Writer, diags []Diagnostic) error {
	rules := make([]sarif.Rule, 0, len(Codes))
	for _, ci := range Codes {
		rules = append(rules, sarif.Rule{ID: ci.Code, Summary: ci.Summary, Level: sarifLevel(ci.Severity)})
	}
	results := make([]sarif.Result, 0, len(diags))
	for _, d := range diags {
		msg := d.Message
		if d.Policy != "" {
			msg += " (policy " + d.Policy + ")"
		}
		uri := d.File
		if uri == "" {
			uri = "<source>"
		}
		results = append(results, sarif.Result{
			RuleID:  d.Code,
			Level:   sarifLevel(d.Severity),
			Message: msg,
			URI:     uri,
			Line:    d.Pos.Line,
			Column:  d.Pos.Col,
		})
	}
	return sarif.Write(w, "oblc vet", rules, results)
}
