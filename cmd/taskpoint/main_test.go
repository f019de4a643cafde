package main

import (
	"bytes"
	"strings"
	"testing"

	"taskpoint"
)

// TestPrintNamesListsEveryBenchValue: the one listing behind -list and
// the unknown--bench error names every Table I benchmark and every
// generated scenario family.
func TestPrintNamesListsEveryBenchValue(t *testing.T) {
	var buf bytes.Buffer
	printNames(&buf)
	out := buf.String()
	for _, n := range taskpoint.Benchmarks() {
		if !strings.Contains(out, "  "+n+"\n") {
			t.Errorf("listing lacks benchmark %q", n)
		}
	}
	for _, f := range taskpoint.ScenarioFamilies() {
		if !strings.Contains(out, "gen:"+f.Name+" ") {
			t.Errorf("listing lacks family gen:%s", f.Name)
		}
	}
}
