package main

import (
	"reflect"
	"strings"
	"testing"

	"taskpoint/internal/gen/corpus"
	"taskpoint/internal/sweep"
)

// corpusSweep is the sweep a corpus spec expands into.
func corpusSweep(t *testing.T, c corpus.Spec) sweep.Spec {
	t.Helper()
	sw, err := c.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestBuildSpec: -corpus builds the drawn corpus's sweep, the dimension
// flags override its defaults after the draw, a single -seeds value is
// the draw's master seed, and the combinations that contradict a drawn
// benchmark axis are rejected.
func TestBuildSpec(t *testing.T) {
	overridden := corpusSweep(t, corpus.Spec{Scenarios: 3, Seed: 7})
	overridden.Name = "stress"
	overridden.Archs = []string{"lp"}
	overridden.Threads = []int{2, 8}
	overridden.Policies = []string{"stratified(96)"}
	overridden.W, overridden.H = 3, 5

	cases := []struct {
		name  string
		flags specFlags
		want  sweep.Spec
		err   string
	}{
		{name: "corpus defaults", flags: specFlags{corpus: 3},
			want: corpusSweep(t, corpus.Spec{Scenarios: 3})},
		{name: "flag overrides", flags: specFlags{corpus: 3, name: "stress", archs: "lp", threads: "2,8",
			policies: "stratified(96)", seeds: "7", w: 3, h: 5}, want: overridden},
		{name: "several seeds", flags: specFlags{corpus: 3, seeds: "1,2"}, err: "one -seeds value"},
		{name: "with benchmarks", flags: specFlags{corpus: 3, benchmarks: "cholesky"}, err: "-benchmarks"},
		{name: "with spec file", flags: specFlags{corpus: 3, specPath: "campaign.json"}, err: "-spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := buildSpec(tc.flags)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("spec\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}

	// The corpus defaults are the draw's: 3 scenarios under the corpus
	// name at master seed 42, and -seeds moves the draw itself.
	def := cases[0].want
	if def.Name != "corpus" || len(def.Benchmarks) != 3 || !reflect.DeepEqual(def.Seeds, []uint64{42}) {
		t.Errorf("corpus defaults %+v", def)
	}
	if reflect.DeepEqual(overridden.Benchmarks, def.Benchmarks) {
		t.Error("-seeds 7 drew the default seed's scenarios")
	}
}
