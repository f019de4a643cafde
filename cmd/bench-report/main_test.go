package main

import (
	"context"
	"encoding/json"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: taskpoint
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAblationStratified 	       1	 231724251 ns/op	         0.1260 ci_rel_width	         3.839 err_pct_sizeclass	         1.713 err_pct_stratified
BenchmarkFig9LazyHighPerf-8   	       2	 410705402 ns/op	         2.693 err_pct	         9.5 speedup_x
some unrelated log line
BenchmarkBroken-8	notanint	12 ns/op
PASS
ok  	taskpoint	1.445s
`

func TestParseBenchOutput(t *testing.T) {
	bs := ParseBenchOutput(sampleOutput)
	if len(bs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(bs), bs)
	}
	// Sorted by name: AblationStratified before Fig9LazyHighPerf.
	ab := bs[0]
	if ab.Name != "AblationStratified" || ab.Procs != 0 || ab.Iterations != 1 {
		t.Errorf("ablation header parsed as %+v", ab)
	}
	if ab.Metrics["err_pct_stratified"] != 1.713 || ab.Metrics["ci_rel_width"] != 0.126 {
		t.Errorf("ablation metrics %v", ab.Metrics)
	}
	fig := bs[1]
	if fig.Name != "Fig9LazyHighPerf" || fig.Procs != 8 || fig.Iterations != 2 {
		t.Errorf("figure header parsed as %+v", fig)
	}
	if fig.Metrics["ns/op"] != 410705402 || fig.Metrics["err_pct"] != 2.693 {
		t.Errorf("figure metrics %v", fig.Metrics)
	}
}

func TestParseBenchOutputEmpty(t *testing.T) {
	if bs := ParseBenchOutput("PASS\nok \ttaskpoint\t0.1s\n"); len(bs) != 0 {
		t.Errorf("parsed %d benchmarks from an empty run", len(bs))
	}
}

// TestRunCorpusSection: the corpus section carries per-policy accuracy
// summaries — worst-case error and CI coverage — and marshals into the
// report JSON.
func TestRunCorpusSection(t *testing.T) {
	cr, err := runCorpus(context.Background(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Scenarios != 3 || cr.Seed != 42 || len(cr.Policies) != 3 {
		t.Fatalf("corpus section %+v", cr)
	}
	sawCI := false
	for _, p := range cr.Policies {
		if p.Cells != 3 {
			t.Errorf("%s summarises %d scenarios, want 3", p.Policy, p.Cells)
		}
		if p.MaxErrPct < p.MeanErrPct {
			t.Errorf("%s worst error %v below mean %v", p.Policy, p.MaxErrPct, p.MeanErrPct)
		}
		if p.CICells > 0 {
			sawCI = true
		}
	}
	if !sawCI {
		t.Error("no policy reported confidence intervals")
	}
	data, err := json.Marshal(Report{Corpus: cr})
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Corpus == nil || len(back.Corpus.Policies) != 3 {
		t.Errorf("corpus section lost in JSON round trip: %s", data)
	}
}
