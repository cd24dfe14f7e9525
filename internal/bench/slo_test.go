package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseRule(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
	}{
		{"query_latency p99 < 50ms",
			Rule{Metric: "query_latency", Agg: "p99", Op: "<", Threshold: 50_000}},
		{"query_latency < 10ms",
			Rule{Metric: "query_latency", Agg: "p99", Op: "<", Threshold: 10_000}},
		{"query_latency p50 <= 2ms",
			Rule{Metric: "query_latency", Agg: "p50", Op: "<=", Threshold: 2_000}},
		{"query_latency p95 < 3ms",
			Rule{Metric: "query_latency", Agg: "p95", Op: "<", Threshold: 3_000}},
		{"slow: query_latency mean < 5ms",
			Rule{Name: "slow", Metric: "query_latency", Agg: "mean", Op: "<", Threshold: 5_000}},
		{"degraded_queries ratio < 1%",
			Rule{Metric: "degraded_queries", Agg: "ratio", Op: "<", Threshold: 0.01}},
		{"degraded < 0.05",
			Rule{Metric: "degraded_queries", Agg: "ratio", Op: "<", Threshold: 0.05}},
		{"maybe_rows <= 20%",
			Rule{Metric: "maybe_rows", Agg: "ratio", Op: "<=", Threshold: 0.20}},
		{"floor: throughput >= 2000",
			Rule{Name: "floor", Metric: "throughput", Agg: "rate", Op: ">=", Threshold: 2000}},
	}
	for _, c := range cases {
		got, err := ParseRule(c.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.in, err)
			continue
		}
		c.want.Raw = c.in
		if c.want.Name == "" {
			c.want.Name = c.in
		}
		if got != c.want {
			t.Errorf("ParseRule(%q)\n got %+v\nwant %+v", c.in, got, c.want)
		}
	}
}

// TestParseRuleErrors: what the grammar refuses, and — where the refusal
// names it — what a report does not keep: no availability, site request
// series, other quantile or errors spelling (Judge's own check).
func TestParseRuleErrors(t *testing.T) {
	for in, want := range map[string]string{
		"":                                    "",
		"latency p99 < 50ms":                  "not latency",
		"query_latency p99 50ms":              "", // no operator
		"query_latency p99 < banana":          "", // bad threshold
		"query_latency p0 < 50ms":             "not p0",
		"query_latency p99.9 < 50ms":          "not p99.9",
		"query_latency p75 < 1s":              "not p75",
		"query_latency pNaN < 50ms":           "not pNaN",
		"query_latency ratio < 1%":            "not ratio",
		"degraded_queries p99 < 1%":           "", // agg/metric mismatch
		"maybe_rows p99 < 1%":                 "", // agg/metric mismatch
		"query_latency p99 < 50ms trailing q": "trailing",
		"query_latency p99 < 1ns":             "", // below the microsecond a threshold is kept in
		"throughput >= 20%":                   "", // a rate is not a share
		"throughput >= NaN":                   "", // not a threshold
		"availability >= 0.99":                "not availability",
		"a:: availability ratio >= 99%":       "not availability",
		"request_errors ratio < 0.5%":         "not request_errors",
		"request_latency p95 < 3ms":           "not request_latency",
		"request_throughput rate > 0":         "not request_throughput",
		"errors <= 0":                         "not errors",
	} {
		if r, err := ParseRule(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseRule(%q) = %+v, %v; want a refusal containing %q", in, r, err, want)
		}
	}
}

// TestParseRuleRefusesWindowBeyondHistory: a report keeps one cell's whole
// run and no history inside it, so every window is beyond what it holds. The
// parser refuses `over` and names it, whatever the window.
func TestParseRuleRefusesWindowBeyondHistory(t *testing.T) {
	for _, in := range []string{
		"query_latency p99 < 50ms over 2m",
		"query_latency p99 < 50ms over 1m",
		"maybe_rows <= 20% over 30s",
	} {
		if r, err := ParseRule(in); err == nil || !strings.Contains(err.Error(), "no `over`") {
			t.Errorf("ParseRule(%q) = %+v, %v; want a refusal containing %q", in, r, err, "no `over`")
		}
	}
}

func TestParseRulesList(t *testing.T) {
	rules, err := ParseRules("query_latency p99 < 50ms; throughput >= 10 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Metric != "query_latency" || rules[1].Metric != "throughput" {
		t.Errorf("rules = %+v", rules)
	}
	if _, err := ParseRules(" ; "); err == nil {
		t.Error("empty list accepted")
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from seedRules")

// seedRules are Rule's examples, one rule per metric and aggregation, the
// spellings the parser treats specially, and rules of the wider grammar it
// once took.
var seedRules = []string{
	"query_latency p99 < 50ms",
	"degraded_queries ratio < 1%",
	"slow: query_latency mean < 5ms",
	"query_latency p50 <= 2ms",
	"query_latency p95 > 1.5s",
	"maybe_rows <= 20%",
	"throughput >= 2000",
	"throughput rate > 0",
	"degraded < 0.05",
	"a:: maybe_rows ratio >= 99%",
	"query_latency p99 < 50ms over 1m",
	"availability >= 0.99",
	"request_errors ratio < 0.5%",
	"",
}

// render writes a parsed rule back in the grammar, from its fields alone.
func render(r Rule) string {
	s := r.Metric + " " + r.Agg + " " + r.Op + " "
	if r.Name != r.Raw {
		s = r.Name + ": " + s
	}
	if units[r.Metric] == "us" {
		return s + (time.Duration(r.Threshold) * time.Microsecond).String()
	}
	return s + strconv.FormatFloat(r.Threshold, 'g', -1, 64)
}

// FuzzParseRule: the rule grammar hetbench slo -rules feeds never panics,
// and a rule it accepts renders from its parsed fields to a text that parses
// back to the same rule — so the fields hold everything the text said.
// Seeds: testdata/fuzz, pinned to seedRules by TestFuzzCorpusIsCurrent.
func FuzzParseRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		r, err := ParseRule(text)
		if err != nil {
			return
		}
		again, err := ParseRule(render(r))
		if err != nil {
			t.Fatalf("ParseRule(%q) renders as %q, which does not parse: %v", text, render(r), err)
		}
		if r.Name == r.Raw {
			again.Name = r.Name // an unnamed rule is named by its own text
		}
		again.Raw = r.Raw
		if again != r {
			t.Fatalf("ParseRule(%q) = %+v\nrenders as %q = %+v", text, r, render(r), again)
		}
	})
}

// TestFuzzCorpusIsCurrent pins the committed seed corpus to seedRules
// (go test ./internal/bench -run TestFuzzCorpusIsCurrent -update-corpus).
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseRule")
	for i, rule := range seedRules {
		file := filepath.Join(dir, fmt.Sprintf("seed-%d", i+1))
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", rule)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != want {
			t.Errorf("%s: seed is not %q (%v; run with -update-corpus)", file, rule, err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(seedRules) {
		t.Errorf("%s holds %d seeds, seedRules has %d", dir, len(files), len(seedRules))
	}
}
