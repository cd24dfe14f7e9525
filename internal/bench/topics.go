package bench

import (
	"context"
	"fmt"
	"strings"
)

// Topic is one named benchmark: the canonical spec behind a committed
// BENCH_<Name>.json, which every run must reproduce, and its runner.
type Topic struct {
	Name string
	// Spec is the canonical spec, and its type selects the runner and the
	// report's payload: MatrixSpec (Run) or FigureSpec (RunFigures).
	Spec any
}

// topics is the registry, in the order usage messages list it.
var topics = []Topic{
	// Every strategy over both workloads: healthy, with one site killed and with it stalled
	// (EXPERIMENTS.md E35, E41).
	{Name: "strategies", Spec: MatrixSpec{
		Strategies: []string{"CA", "BL", "PL", "SBL", "SPL"},
		Workloads:  []string{"school", "table2"},
		Faults:     []string{"none", "kill:DB3", "delay:DB3:5ms"},
		Queries:    30,
		Zipf:       0.9,
		Variants:   3,
		Scale:      0.02,
		Seed:       42,
	}},
	// The paper's Section 4 study and the sweeps around it as EXPERIMENTS.md
	// records them (E4–E10, E12, E24; two minutes), gated on the paper's shapes.
	{Name: "figures", Spec: FigureSpec{Samples: 20, Scale: 0.3, Seed: 1, Sweeps: []string{
		"figure9", "figure10", "figure11", "signatures", "network", "indexes", "faults"}}},
}

// LookupTopic resolves a registered topic; the error names the registry.
func LookupTopic(name string) (Topic, error) {
	names := make([]string, len(topics))
	for i, t := range topics {
		if t.Name == name {
			return t, nil
		}
		names[i] = t.Name
	}
	return Topic{}, fmt.Errorf("bench: unknown topic %q (registered: %s)", name, strings.Join(names, ", "))
}

// Validate rejects a spec its runner could not run as written, and a
// self-gating spec that carries no gate.
func (t Topic) Validate() error {
	switch s := t.Spec.(type) {
	case MatrixSpec:
		return validate(&s)
	case FigureSpec:
		if s.Samples < 1 || s.Scale <= 0 || len(s.Sweeps) == 0 {
			return fmt.Errorf("bench: topic %s: want samples ≥ 1, scale > 0 and a sweep: %+v", t.Name, s)
		}
		for _, name := range s.Sweeps {
			if _, err := lookupSweep(name); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("bench: topic %s: no runner for spec type %T", t.Name, t.Spec)
	}
	return nil
}

// Run executes the topic's spec on the runner its type selects. A figures
// run that fails its shape gate returns the measured report alongside the
// error, so the caller can still write it.
func (t Topic) Run(ctx context.Context, progress func(string)) (*Report, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if s, ok := t.Spec.(FigureSpec); ok {
		return RunFigures(ctx, s, progress)
	}
	return Run(ctx, t.Spec.(MatrixSpec), t.Name, progress) // Validate admitted it
}
