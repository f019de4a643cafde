package gen

import (
	"fmt"
	"strconv"
	"strings"

	"taskpoint/internal/bench"
	"taskpoint/internal/trace"
)

// Scheme is the bench.Resolver scheme generated scenarios are named
// under: "gen:family(knob=value,...)".
const Scheme = "gen"

func init() {
	bench.RegisterResolver(Scheme, func(name string) (*bench.Spec, error) {
		sc, err := Parse(name)
		if err != nil {
			return nil, err
		}
		return sc.BenchSpec(), nil
	})
}

// Parse builds a Scenario from its spec string, the inverse of
// Scenario.Spec. The grammar is strict:
//
//	gen:FAMILY
//	gen:FAMILY(knob=value,knob=value,...)
//
// (the "gen:" prefix is optional, so bare "forkjoin(width=8)" parses
// too). Knobs are tasks, width, depth, types, mean, phases (positive
// integers), cv, inputdep (floats in [0,1]) and size (loguniform, fixed,
// bimodal, heavytail). Unknown families, unknown or duplicate knobs and
// out-of-range values are errors, never silent defaults.
func Parse(spec string) (*Scenario, error) {
	s := strings.TrimSpace(spec)
	s = strings.TrimPrefix(s, Scheme+":")
	name, args := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("gen: malformed spec %q: unbalanced parentheses", spec)
		}
		name, args = s[:i], s[i+1:len(s)-1]
	}
	fam, err := FamilyByName(name)
	if err != nil {
		return nil, err
	}
	k := DefaultKnobs()
	if strings.TrimSpace(args) != "" {
		seen := map[string]bool{}
		for _, pair := range strings.Split(args, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if !ok || key == "" || val == "" {
				return nil, fmt.Errorf("gen: malformed knob %q in %q (want knob=value)", pair, spec)
			}
			if seen[key] {
				return nil, fmt.Errorf("gen: duplicate knob %q in %q", key, spec)
			}
			seen[key] = true
			if err := setKnob(&k, key, val); err != nil {
				return nil, err
			}
		}
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &Scenario{Family: fam, Knobs: k}, nil
}

// setKnob applies one parsed knob=value pair.
func setKnob(k *Knobs, key, val string) error {
	intKnob := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("gen: knob %s=%q: want an integer", key, val)
		}
		*dst = v
		return nil
	}
	floatKnob := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("gen: knob %s=%q: want a number", key, val)
		}
		*dst = v
		return nil
	}
	switch key {
	case "tasks":
		return intKnob(&k.Tasks)
	case "width":
		return intKnob(&k.Width)
	case "depth":
		return intKnob(&k.Depth)
	case "types":
		return intKnob(&k.Types)
	case "mean":
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("gen: knob mean=%q: want an integer", val)
		}
		k.Mean = v
		return nil
	case "phases":
		return intKnob(&k.Phases)
	case "cv":
		return floatKnob(&k.CV)
	case "inputdep":
		return floatKnob(&k.InputDep)
	case "size":
		d, err := ParseSizeDist(val)
		if err != nil {
			return err
		}
		k.Size = d
		return nil
	default:
		return fmt.Errorf("gen: unknown knob %q (want tasks, width, depth, types, size, mean, cv, phases or inputdep)", key)
	}
}

// Spec returns the canonical spec string: "gen:family" with every
// non-default knob listed in fixed order, so Parse(sc.Spec()) rebuilds an
// identical scenario and the string is a stable cache/report key.
func (sc *Scenario) Spec() string {
	def := DefaultKnobs()
	k := sc.Knobs
	var args []string
	add := func(key, val string) { args = append(args, key+"="+val) }
	if k.Tasks != def.Tasks {
		add("tasks", strconv.Itoa(k.Tasks))
	}
	if k.Width != def.Width {
		add("width", strconv.Itoa(k.Width))
	}
	if k.Depth != def.Depth {
		add("depth", strconv.Itoa(k.Depth))
	}
	if k.Types != def.Types {
		add("types", strconv.Itoa(k.Types))
	}
	if k.Size != def.Size {
		add("size", k.Size.String())
	}
	if k.Mean != def.Mean {
		add("mean", strconv.FormatInt(k.Mean, 10))
	}
	if k.CV != def.CV {
		add("cv", strconv.FormatFloat(k.CV, 'g', -1, 64))
	}
	if k.Phases != def.Phases {
		add("phases", strconv.Itoa(k.Phases))
	}
	if k.InputDep != def.InputDep {
		add("inputdep", strconv.FormatFloat(k.InputDep, 'g', -1, 64))
	}
	if len(args) == 0 {
		return Scheme + ":" + sc.Family.Name
	}
	return Scheme + ":" + sc.Family.Name + "(" + strings.Join(args, ",") + ")"
}

// BenchSpec adapts the scenario to the benchmark registry's
// lookup-and-Build contract: Name is the canonical spec, Instances the
// tasks knob, and the build function the seeded materialiser. Through it,
// scenario specs work everywhere a Table I name does (engine requests,
// sweep campaigns, cmd/taskpoint).
func (sc *Scenario) BenchSpec() *bench.Spec {
	return bench.NewSpec(sc.Spec(), len(sc.Family.typeNames(sc.Knobs)), sc.Knobs.Tasks,
		sc.Family.Blurb, sc.build)
}

// Build generates the scenario's program at the given scale and seed,
// validating the result — the direct-use path mirroring bench.Spec.Build.
func (sc *Scenario) Build(scale float64, seed uint64) (*trace.Program, error) {
	return sc.BenchSpec().Build(scale, seed)
}
