package bench

import (
	"context"
	"testing"
)

// baselineReport builds a deterministic sim report to gate against.
func baselineReport(t *testing.T) *Report {
	t.Helper()
	r, err := Run(context.Background(), smokeSpec(), "gate", nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

// TestCheckNoFalsePositives: a report checked against itself is clean, as
// is a rerun with the same seed (byte-identical).
func TestCheckNoFalsePositives(t *testing.T) {
	base := baselineReport(t)
	if v := Check(base, base); len(v) != 0 {
		t.Fatalf("self-check found %d violations: %v", len(v), v)
	}
	rerun := baselineReport(t)
	if v := Check(base, rerun); len(v) != 0 {
		t.Fatalf("identical rerun flagged: %v", v)
	}
}

// TestCheckCatchesRegressions: injected regressions at/over tolerance fail,
// sub-tolerance drift passes.
func TestCheckCatchesRegressions(t *testing.T) {
	base := baselineReport(t)

	worse := baselineReport(t)
	worse.Results()[0].Client.P99Micros *= 1.5
	worse.Results()[1].Client.QPS *= 0.5
	worse.Results()[2].Server.MaybeFrac += 0.5
	worse.Results()[3].Client.Errors = 2
	v := Check(base, worse)
	if len(v) != 4 {
		t.Fatalf("got %d violations, want 4: %v", len(v), v)
	}
	seen := map[string]bool{}
	for _, viol := range v {
		seen[viol.Metric] = true
		if viol.String() == "" {
			t.Error("empty violation rendering")
		}
	}
	for _, m := range []string{"p99_us", "qps", "maybe_frac", "errors"} {
		if !seen[m] {
			t.Errorf("metric %s not flagged (flagged: %v)", m, seen)
		}
	}

	// Drift inside the tolerance is not a regression.
	drift := baselineReport(t)
	for i := range drift.Results() {
		drift.Results()[i].Client.P99Micros *= 1.05
		drift.Results()[i].Client.QPS *= 0.95
	}
	if v := Check(base, drift); len(v) != 0 {
		t.Fatalf("5%% drift flagged under the 10%% tolerance: %v", v)
	}

	// A vanished cell is a coverage regression.
	shrunk := baselineReport(t)
	shrunk.Cells = shrunk.Results()[1:]
	v = Check(base, shrunk)
	if len(v) != 1 || v[0].Metric != "missing" {
		t.Fatalf("missing cell not flagged: %v", v)
	}
	// A grown matrix is fine.
	if v := Check(shrunk, base); len(v) != 0 {
		t.Fatalf("extra cells flagged: %v", v)
	}

	// A different load shape is not comparable, however the cells look.
	reshaped := baselineReport(t)
	spec := reshaped.Spec.(MatrixSpec)
	spec.Queries, spec.Seed = 3, 43
	reshaped.Spec = spec
	v = Check(base, reshaped)
	if len(v) != 2 || v[0].Cell != "spec" || v[0].Metric != "queries" || v[1].Metric != "seed" {
		t.Fatalf("reshaped run: got %v, want spec violations for queries and seed", v)
	}
}
