package slo

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from seedRules")

// seedRules are the package comment's examples, one rule per measure the
// table gained since, and the spellings the parser treats specially.
var seedRules = []string{
	"query_latency p99 < 50ms over 1m",
	"degraded_queries ratio < 1% over 1m",
	"request_errors ratio < 0.5% over 30s",
	"slow: query_latency mean < 5ms over 45s",
	"maybe_rows <= 20% over 1m",
	"throughput >= 2000",
	"availability >= 0.99",
	"request_latency p99.9 <= 1.5s",
	"request_throughput rate > 0 over 10s",
	"degraded < 0.05",
	"errors <= 0",
	"a:: availability ratio >= 99%",
	"",
}

// render writes a parsed rule back in the grammar, from its fields alone.
func render(r Rule) string {
	s := r.Metric + " " + r.Agg + " " + r.Op + " "
	if r.Name != r.Raw {
		s = r.Name + ": " + s
	}
	if r.Unit == "us" {
		s += (time.Duration(r.Threshold) * time.Microsecond).String()
	} else {
		s += strconv.FormatFloat(r.Threshold, 'g', -1, 64)
	}
	if !r.Instant {
		s += " over " + r.Window.String()
	}
	return s
}

// FuzzParseRule: the rule grammar two command lines feed (hetserve -slo,
// hetbench slo -rules) never panics, and a rule it accepts renders from its
// parsed fields to a text that parses back to the same rule — so the fields
// hold everything the text said. Seeds: testdata/fuzz, pinned to seedRules
// by TestFuzzCorpusIsCurrent.
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
// (go test ./internal/obs/slo -run TestFuzzCorpusIsCurrent -update-corpus).
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
