package sarif

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteOptionalFields pins the two shapes callers rely on: a rule
// without a level carries no defaultConfiguration, and a result without a
// line carries no region.
func TestWriteOptionalFields(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, "tool",
		[]Rule{{ID: "A", Summary: "a", Level: "warning"}, {ID: "B", Summary: "b"}},
		[]Result{
			{RuleID: "A", Level: "warning", Message: "placed", URI: "f.go", Line: 3, Column: 7},
			{RuleID: "B", Level: "error", Message: "unplaced", URI: "<source>"},
		})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string                   `json:"name"`
					Rules []map[string]interface{} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				Locations []struct {
					PhysicalLocation map[string]interface{} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != "2.1.0" || got.Schema == "" || len(got.Runs) != 1 {
		t.Fatalf("envelope = %q/%q with %d runs", got.Version, got.Schema, len(got.Runs))
	}
	run := got.Runs[0]
	if run.Tool.Driver.Name != "tool" || len(run.Tool.Driver.Rules) != 2 {
		t.Fatalf("driver = %q with %d rules", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	if _, ok := run.Tool.Driver.Rules[0]["defaultConfiguration"]; !ok {
		t.Error("leveled rule lost its defaultConfiguration")
	}
	if _, ok := run.Tool.Driver.Rules[1]["defaultConfiguration"]; ok {
		t.Error("level-less rule carries a defaultConfiguration")
	}
	if len(run.Results) != 2 {
		t.Fatalf("%d results, want 2", len(run.Results))
	}
	if _, ok := run.Results[0].Locations[0].PhysicalLocation["region"]; !ok {
		t.Error("placed result lost its region")
	}
	if _, ok := run.Results[1].Locations[0].PhysicalLocation["region"]; ok {
		t.Error("line-less result carries a region")
	}
}
