package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRerunRejectsDoctoredReportByName runs two cheap experiments, then
// reruns them against the first pass: unchanged, the rerun passes; with
// one first-pass report doctored, the rerun fails and names that
// experiment and the pass.
func TestRerunRejectsDoctoredReportByName(t *testing.T) {
	var selected []bench.Experiment
	for _, id := range []string{"table1", "eq9"} {
		e, ok := bench.ExperimentByID(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		selected = append(selected, e)
	}
	cfg := bench.SuiteConfig{Quick: true, Procs: []int{1, 2}}
	first, _, _, err := runSuite(cfg, selected, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rerun(cfg, selected, 1, first, "serial pass"); err != nil {
		t.Fatalf("faithful rerun rejected: %v", err)
	}

	doctored := *first[1]
	doctored.Notes = append(append([]string(nil), doctored.Notes...), "doctored")
	first[1] = &doctored
	_, err = rerun(cfg, selected, 1, first, "serial pass")
	if err == nil {
		t.Fatal("rerun accepted a doctored report")
	}
	if msg := err.Error(); !strings.Contains(msg, "eq9") || !strings.Contains(msg, "serial pass") || strings.Contains(msg, "table1") {
		t.Errorf("error %q does not name exactly the doctored experiment and the pass", msg)
	}
}
