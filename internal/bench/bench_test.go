package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/metrics"
)

// smokeSpec is a tiny sim matrix exercising strategy and fault dimensions.
func smokeSpec() MatrixSpec {
	return MatrixSpec{
		Strategies: []string{"CA", "BL"},
		Workloads:  []string{"school"},
		Faults:     []string{"none", "kill:DB3"},
		Queries:    6,
		Zipf:       0.8,
		Variants:   3,
		Seed:       42,
	}
}

// TestSimDeterminism: identical seeds reproduce byte-identical reports — the
// property the regression gate banks on.
func TestSimDeterminism(t *testing.T) {
	run := func() []byte {
		r, err := Run(context.Background(), smokeSpec(), "smoke", nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		data, err := r.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different reports:\n--- first\n%s\n--- second\n%s", a, b)
	}

	// A different seed must actually change the measurements (the seed
	// reaches the workload draws and variant sequences).
	spec := smokeSpec()
	spec.Seed = 43
	r2, err := Run(context.Background(), spec, "smoke", nil)
	if err != nil {
		t.Fatalf("Run(seed 43): %v", err)
	}
	d2, _ := r2.JSON()
	if bytes.Equal(a, d2) {
		t.Fatal("different seeds produced byte-identical reports")
	}
}

// TestSimCellContent: the measured cells carry both measurement sides with
// sane values, and the fault dimension shows up as degradation.
func TestSimCellContent(t *testing.T) {
	r, err := Run(context.Background(), smokeSpec(), "smoke", nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(r.Results()) != 4 {
		t.Fatalf("got %d cells, want 4", len(r.Results()))
	}
	for _, c := range r.Results() {
		key := c.Cell.Key()
		if c.Client.Completed != 6 {
			t.Errorf("%s: completed %d, want 6", key, c.Client.Completed)
		}
		if c.Client.P50Micros <= 0 || c.Client.P99Micros < c.Client.P50Micros ||
			c.Client.MaxMicros < c.Client.P99Micros {
			t.Errorf("%s: broken latency ordering p50=%v p99=%v max=%v",
				key, c.Client.P50Micros, c.Client.P99Micros, c.Client.MaxMicros)
		}
		if c.Client.QPS <= 0 {
			t.Errorf("%s: qps %v", key, c.Client.QPS)
		}
		if c.Server.Queries != 6 {
			t.Errorf("%s: server saw %d queries, want 6", key, c.Server.Queries)
		}
		if c.Server.NetBytes <= 0 {
			t.Errorf("%s: no network bytes measured", key)
		}
		if c.Server.CertainRows > 0 || c.Server.MaybeRows > 0 {
			if sum := c.Server.CertainFrac + c.Server.MaybeFrac; sum < 0.99 || sum > 1.01 {
				t.Errorf("%s: fractions sum to %v", key, sum)
			}
		}
		switch c.Cell.Fault {
		case "kill:DB3":
			// Only queries whose variant involves DB3 degrade; the Zipf-hot
			// Q1 does, so some but not necessarily all queries are affected.
			if c.Server.DegradedFrac <= 0 {
				t.Errorf("%s: degraded frac %v with a dead site, want > 0", key, c.Server.DegradedFrac)
			}
			if c.Client.Degraded == 0 {
				t.Errorf("%s: no client-observed degraded answers", key)
			}
			if int64(c.Client.Degraded) != c.Server.DegradedQueries {
				t.Errorf("%s: client saw %d degraded, server recorded %d",
					key, c.Client.Degraded, c.Server.DegradedQueries)
			}
		case "none":
			if c.Server.DegradedFrac != 0 {
				t.Errorf("%s: degraded frac %v with no faults", key, c.Server.DegradedFrac)
			}
		}
	}
	// The dead-site cells must not report identical answer quality to the
	// healthy ones for the same strategy: killing DB3 moves rows to maybe.
	healthy, _ := r.Get("BL/school/none")
	dead, _ := r.Get("BL/school/kill:DB3")
	if dead.Server.MaybeFrac <= healthy.Server.MaybeFrac {
		t.Errorf("maybe frac with dead site %v, healthy %v — fault had no quality effect",
			dead.Server.MaybeFrac, healthy.Server.MaybeFrac)
	}
}

// runStrategies runs the strategies topic on its canonical spec.
func runStrategies(t *testing.T) (*Report, MatrixSpec) {
	t.Helper()
	topic, err := LookupTopic("strategies")
	if err != nil {
		t.Fatal(err)
	}
	r, err := topic.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r, topic.Spec.(MatrixSpec)
}

// TestStrategiesReproduceCommittedReport: the strategies topic runs in
// virtual time, so a run reproduces every cell of the committed
// BENCH_strategies.json to the bit. A cell that differs means the cost model,
// the simulator's scheduling or a strategy's work moved; a change that means
// to move one regenerates the file with hetbench run -topic strategies -out
// and says why.
func TestStrategiesReproduceCommittedReport(t *testing.T) {
	r, _ := runStrategies(t)
	committed, err := ReadReport(filepath.Join("..", "..", "BENCH_strategies.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Results()), len(committed.Results()); got != want {
		t.Errorf("%d cells measured, %d committed", got, want)
	}
	for _, want := range committed.Results() {
		key := want.Cell.Key()
		got, ok := r.Get(key)
		if !ok {
			t.Errorf("cell %s: committed, not measured", key)
			continue
		}
		g, errG := json.Marshal(got)
		w, errW := json.Marshal(want)
		if errG != nil || errW != nil || !bytes.Equal(g, w) {
			t.Errorf("cell %s:\nmeasured  %s\ncommitted %s", key, g, w)
		}
	}
}

// TestStrategiesKillDB3: over the strategies topic, a sick DB3 is judged
// against the healthy cell of the same strategy and workload.
//   - Dead, it never makes any strategy's answers more certain, always
//     degrades some queries, and on table2 takes work off BL and PL: DB3
//     scans nothing and answers no check, and its missing evidence leaves
//     rows maybe rather than costing more work elsewhere (EXPERIMENTS.md E35).
//   - Stalled, it changes no answer and degrades no query, and no strategy
//     reads faster on average than healthy (EXPERIMENTS.md E41).
func TestStrategiesKillDB3(t *testing.T) {
	r, spec := runStrategies(t)
	perQuery := func(c CellResult) float64 { return float64(c.Server.CPUOps) / float64(c.Server.Queries) }
	for _, fault := range []string{"kill:DB3", "delay:DB3:5ms"} {
		t.Run(fault, func(t *testing.T) {
			for _, strat := range spec.Strategies {
				for _, wl := range spec.Workloads {
					healthy, ok1 := r.Get(strat + "/" + wl + "/none")
					sick, ok2 := r.Get(strat + "/" + wl + "/" + fault)
					if !ok1 || !ok2 {
						t.Fatalf("%s/%s: cells missing from %d", strat, wl, len(r.Results()))
					}
					key := sick.Cell.Key()
					if fault == "delay:DB3:5ms" {
						if sick.Server.CertainRows != healthy.Server.CertainRows || sick.Server.MaybeRows != healthy.Server.MaybeRows ||
							sick.Server.DegradedQueries != 0 {
							t.Errorf("%s: %d certain, %d maybe, %d degraded; healthy %d certain, %d maybe", key,
								sick.Server.CertainRows, sick.Server.MaybeRows, sick.Server.DegradedQueries,
								healthy.Server.CertainRows, healthy.Server.MaybeRows)
						}
						if sick.Client.MeanMicros < healthy.Client.MeanMicros {
							t.Errorf("%s: mean %.0fµs, faster than healthy %.0fµs", key, sick.Client.MeanMicros, healthy.Client.MeanMicros)
						}
						continue
					}
					if sick.Server.MaybeFrac < healthy.Server.MaybeFrac {
						t.Errorf("%s: maybe frac %v, %v healthy", key, sick.Server.MaybeFrac, healthy.Server.MaybeFrac)
					}
					if sick.Server.DegradedFrac <= 0 {
						t.Errorf("%s: degraded frac %v, want > 0", key, sick.Server.DegradedFrac)
					}
					if wl == "table2" && (strat == "BL" || strat == "PL") && perQuery(sick) >= perQuery(healthy) {
						t.Errorf("%s: %.0f cpu ops per query, %.0f healthy; want fewer", key, perQuery(sick), perQuery(healthy))
					}
				}
			}
		})
	}
}

// TestStrategiesAgreePerColumn: every cell over one workload runs the same
// query stream, so under one fault plan all strategies return the same
// certain and maybe rows — DESIGN.md §4 invariant 1 at matrix scale.
func TestStrategiesAgreePerColumn(t *testing.T) {
	r, spec := runStrategies(t)
	for _, wl := range spec.Workloads {
		for _, fault := range spec.Faults {
			first, ok := r.Get(spec.Strategies[0] + "/" + wl + "/" + fault)
			if !ok {
				t.Fatalf("%s/%s: cells missing from %d", wl, fault, len(r.Results()))
			}
			for _, strat := range spec.Strategies[1:] {
				c, _ := r.Get(strat + "/" + wl + "/" + fault)
				if c.Server.CertainRows != first.Server.CertainRows || c.Server.MaybeRows != first.Server.MaybeRows {
					t.Errorf("%s: %d certain, %d maybe rows; %s: %d certain, %d maybe", c.Cell.Key(),
						c.Server.CertainRows, c.Server.MaybeRows, first.Cell.Key(), first.Server.CertainRows, first.Server.MaybeRows)
				}
			}
		}
	}
}

// TestReportRoundTrip: WriteFile → ReadReport is lossless for every payload
// the one envelope carries — each registered topic's kind and an unregistered
// matrix — and the schema gate refuses foreign versions.
func TestReportRoundTrip(t *testing.T) {
	matrix, err := Run(context.Background(), MatrixSpec{
		Strategies: []string{"PL"}, Workloads: []string{"school"}, Queries: 2, Seed: 7,
	}, "roundtrip", nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	figures := newReport("figures", 7, FigureSpec{Samples: 2, Scale: 0.1, Seed: 7, Sweeps: []string{"faults"}})
	figures.Cells = []FigureCell{{Figure: "faults", X: 1, Strategy: "BL", TotalMillis: 9.25, TotalStd: 1.5,
		ResponseMillis: 4.5, ResponseStd: 0.25, NetKB: 3.125, MaybeRows: 1.5, DegradedShare: 0.5}}

	path := filepath.Join(t.TempDir(), "BENCH_roundtrip.json")
	for _, r := range []*Report{matrix, figures} {
		if err := r.WriteFile(path); err != nil {
			t.Fatalf("%s: WriteFile: %v", r.Topic, err)
		}
		back, err := ReadReport(path)
		if err != nil {
			t.Fatalf("%s: ReadReport: %v", r.Topic, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Errorf("%s: round trip mangled the report:\n got %+v\nwant %+v", r.Topic, back, r)
		}
	}

	bad := *matrix
	bad.Schema = SchemaVersion + 1
	if err := bad.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Error("foreign schema version should refuse to load")
	}
}

// TestCommittedReportsCanonical: every committed BENCH_<topic>.json is in
// this build's envelope byte for byte — ReadReport types it and JSON renders
// it back unchanged — and was measured under the topic table's spec, so
// `hetbench run -topic T -out BENCH_T.json` reruns what the file records and
// diffs only in what was measured.
func TestCommittedReportsCanonical(t *testing.T) {
	for _, topic := range topics {
		path := filepath.Join("..", "..", "BENCH_"+topic.Name+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ReadReport(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if !reflect.DeepEqual(r.Spec, topic.Spec) {
			t.Errorf("%s ran %+v, the topic table says %+v", path, r.Spec, topic.Spec)
		}
		if got, err := r.JSON(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s is not canonical (err %v): rewrite it with hetbench run -topic %s -out, or convert it key for key",
				path, err, topic.Name)
		}
		// A matrix cell's shares are what extractServerStats makes of its sums.
		for _, c := range r.Results() {
			reg, at := metrics.New(), metrics.Labels{Site: coordinatorID}
			reg.Counter("queries_total", at).Add(c.Server.Queries)
			reg.Counter("degraded_queries_total", at).Add(c.Server.DegradedQueries)
			reg.Counter("results_certain_total", at).Add(c.Server.CertainRows)
			reg.Counter("results_maybe_total", at).Add(c.Server.MaybeRows)
			got, have := extractServerStats(reg.Snapshot()), c.Server
			if got.MaybeFrac != have.MaybeFrac || got.CertainFrac != have.CertainFrac || got.DegradedFrac != have.DegradedFrac {
				t.Errorf("%s cell %s: shares %g/%g/%g, its sums give %g/%g/%g", path, c.Cell.Key(),
					have.MaybeFrac, have.CertainFrac, have.DegradedFrac, got.MaybeFrac, got.CertainFrac, got.DegradedFrac)
			}
		}
	}
}

// TestRunCanceled: a cancelled context stops the matrix run with its error.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smokeSpec(), "smoke", nil); err == nil {
		t.Fatal("cancelled run should report the context error")
	}
}

// TestValidate: bad dimensions fail fast, before any cell runs.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*MatrixSpec)
	}{
		{"strategy", func(s *MatrixSpec) { s.Strategies = []string{"XX"} }},
		// The strategy is one the caller names; there is no selector to pick one.
		{"adaptive", func(s *MatrixSpec) { s.Strategies = []string{"CA", "BL", "adaptive"} }},
		{"fault", func(s *MatrixSpec) { s.Faults = []string{"explode:DB1"} }},
		{"fault-arity", func(s *MatrixSpec) { s.Faults = []string{"drop:DB1"} }},
		{"fault-infinite", func(s *MatrixSpec) { s.Faults = []string{"delay:DB3:Inf"} }},
		{"workload", func(s *MatrixSpec) { s.Workloads = []string{"nope"} }},
	} {
		spec := smokeSpec()
		tc.mutate(&spec)
		if _, err := Run(context.Background(), spec, "bad", nil); err == nil {
			t.Errorf("%s: bad spec ran anyway", tc.name)
		}
	}
	// A figures spec that would average zero draws (NaN tables), scale the
	// extents to nothing or run a sweep nobody registered used to run and
	// exit 0; the refusal of an unknown sweep lists the registry.
	for name, spec := range map[string]FigureSpec{
		"samples":        {Samples: 0, Scale: 0.3, Seed: 1, Sweeps: []string{"figure9"}},
		"scale":          {Samples: 3, Scale: 0, Seed: 1, Sweeps: []string{"figure9"}},
		"negative-scale": {Samples: 3, Scale: -1, Seed: 1, Sweeps: []string{"figure9"}},
		"sweep":          {Samples: 3, Scale: 0.3, Seed: 1, Sweeps: []string{"figure9", "figure12"}},
		"planner":        {Samples: 3, Scale: 0.3, Seed: 1, Sweeps: []string{"planner"}},
		"no-sweep":       {Samples: 3, Scale: 0.3, Seed: 1},
	} {
		report, err := Topic{Name: "figures", Spec: spec}.Run(context.Background(), nil)
		if err == nil || report != nil {
			t.Errorf("figures %s: bad spec ran anyway (report %v, err %v)", name, report, err)
		} else if name == "sweep" && !strings.Contains(err.Error(), "figure9, figure10, figure11, signatures, network, indexes, faults)") {
			t.Errorf("figures %s: refusal %q does not list the registered sweeps", name, err)
		}
	}
}

// TestBundleStability: the same workload name and seed always builds the
// same federation and variant queries (cells compare apples to apples).
func TestBundleStability(t *testing.T) {
	a, err := BuildBundle("table2", 3, 0.01, 11)
	if err != nil {
		t.Fatalf("BuildBundle: %v", err)
	}
	b, err := BuildBundle("table2", 3, 0.01, 11)
	if err != nil {
		t.Fatalf("BuildBundle: %v", err)
	}
	if len(a.Bounds) != 3 || len(b.Bounds) != 3 {
		t.Fatalf("got %d and %d bounds, want 3", len(a.Bounds), len(b.Bounds))
	}
	for i := range a.Bounds {
		if qa, qb := a.Bounds[i].Query.String(), b.Bounds[i].Query.String(); qa != qb {
			t.Errorf("variant %d diverged:\n%s\n%s", i, qa, qb)
		}
	}
	// Variants differ from each other when the base query has a predicate.
	if q0, q1 := a.Bounds[0].Query.String(), a.Bounds[1].Query.String(); q0 == q1 {
		t.Logf("note: variants identical (base query may have no predicates): %s", q0)
	}
	if _, err := BuildBundle("school", 4, 0.01, 5); err != nil {
		t.Errorf("BuildBundle(school): %v", err)
	}
	if _, err := BuildBundle("table2eq", 4, 0.01, 5); err == nil {
		t.Error("BuildBundle(table2eq): the equality-predicate workload is gone, yet it built")
	}
}

// TestSummarize: the stats reduction counts outcomes and orders percentiles.
func TestSummarize(t *testing.T) {
	results := []Result{
		{Micros: 100}, {Micros: 300, Degraded: true}, {Micros: 200},
		{Err: context.Canceled}, {Err: context.DeadlineExceeded},
	}
	st := Summarize(results, 1e6) // 1s wall
	if st.Queries != 5 || st.Completed != 3 || st.Errors != 2 || st.Degraded != 1 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.QPS != 3 {
		t.Errorf("qps = %v, want 3", st.QPS)
	}
	if st.P50Micros != 200 || st.MaxMicros != 300 {
		t.Errorf("percentiles wrong: p50=%v max=%v", st.P50Micros, st.MaxMicros)
	}
	if st.MeanMicros != 200 {
		t.Errorf("mean = %v, want 200", st.MeanMicros)
	}
	empty := Summarize(nil, 0)
	if empty.QPS != 0 || empty.P99Micros != 0 {
		t.Errorf("empty summarize: %+v", empty)
	}
}
