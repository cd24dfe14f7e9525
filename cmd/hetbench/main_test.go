package main

import (
	"os"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/bench"
)

// inTempDir runs the test from a fresh directory, so relative BENCH_*.json
// paths resolve there and not in the source tree.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTopicsResolve: every registered topic resolves by name and carries a
// spec its runner accepts (that it is also the spec behind the committed
// BENCH_T.json is internal/bench's TestCommittedReportsCanonical).
func TestTopicsResolve(t *testing.T) {
	if len(bench.Topics()) == 0 {
		t.Fatal("no topics registered")
	}
	for _, topic := range bench.Topics() {
		got, err := bench.LookupTopic(topic.Name)
		if err != nil || got.Name != topic.Name {
			t.Errorf("LookupTopic(%q) = %+v, %v", topic.Name, got, err)
		}
		if err := topic.Validate(); err != nil {
			t.Errorf("topic %s: %v", topic.Name, err)
		}
	}
}

// TestTopicSelection: an unknown topic is an error naming the registered
// ones unless matrix flags make it an ad-hoc matrix, and a registered topic
// refuses matrix flags instead of silently ignoring them.
func TestTopicSelection(t *testing.T) {
	inTempDir(t)
	err := run([]string{"run", "-topic", "chaso"})
	if err == nil {
		t.Fatal("unknown topic ran")
	}
	for _, topic := range bench.Topics() {
		if !strings.Contains(err.Error(), topic.Name) {
			t.Errorf("error %q does not name registered topic %s", err, topic.Name)
		}
	}
	if err := run([]string{"run", "-topic", "smoke", "-queries", "3"}); err == nil || !strings.Contains(err.Error(), "-queries") {
		t.Errorf("registered topic with a matrix flag: err = %v, want a refusal naming -queries", err)
	}
	for _, gone := range []string{"obs", "durability", "chaos"} {
		if err := run([]string{gone}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("hetbench %s: err = %v, want unknown subcommand", gone, err)
		}
	}
	if err := run([]string{"run", "-q", "-topic", "mine", "-strategies", "CA", "-queries", "2", "-out", "BENCH_mine.json"}); err != nil {
		t.Fatalf("ad-hoc matrix: %v", err)
	}
	if r, err := bench.ReadReport("BENCH_mine.json"); err != nil || r.Topic != "mine" || len(r.Results()) != 1 {
		t.Errorf("ad-hoc report = %+v, %v; want topic mine with one cell", r, err)
	}
}

// TestCheckCmd: check passes a report against itself and fails a regressed
// copy.
func TestCheckCmd(t *testing.T) {
	inTempDir(t)
	const old = "BENCH_smoke.json" // the regeneration path: the one -out a sim topic writes ungated
	if err := run([]string{"run", "-q", "-topic", "smoke", "-out", old}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-old", old, "-new", old}); err != nil {
		t.Errorf("equal reports: %v", err)
	}
	worse, err := bench.ReadReport(old)
	if err != nil {
		t.Fatal(err)
	}
	worse.Results()[0].Client.P99Micros *= 2
	if err := worse.WriteFile("new.json"); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-old", old, "-new", "new.json"}); err == nil {
		t.Error("a doubled p99 passed the check")
	}
}

// TestRunNeverWritesTheBaseline: the gated invocation reads the baseline it
// is judged by and writes nothing — it used to overwrite BENCH_smoke.json
// first and then compare the fresh report with itself.
func TestRunNeverWritesTheBaseline(t *testing.T) {
	inTempDir(t)
	if err := run([]string{"run", "-q", "-topic", "smoke", "-out", "BENCH_smoke.json"}); err != nil {
		t.Fatal(err)
	}
	baseline, err := os.ReadFile("BENCH_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	// A trailing blank line marks this copy: any rewrite would drop it.
	marked := append(baseline, '\n')
	if err := os.WriteFile("BENCH_smoke.json", marked, 0o644); err != nil {
		t.Fatal(err)
	}
	unchanged := func(after string) {
		t.Helper()
		got, err := os.ReadFile("BENCH_smoke.json")
		if err != nil || string(got) != string(marked) {
			t.Fatalf("%s: baseline rewritten (err %v)", after, err)
		}
		if entries, _ := os.ReadDir("."); len(entries) != 1 {
			t.Fatalf("%s: left %d files behind, want the baseline alone", after, len(entries))
		}
	}

	for _, args := range [][]string{
		{"run", "-q", "-topic", "smoke"},
		{"run", "-q", "-topic", "smoke", "-check", "BENCH_smoke.json"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
		unchanged(strings.Join(args, " "))
	}
	if err := run([]string{"run", "-q", "-topic", "smoke", "-check", "BENCH_smoke.json", "-out", "./BENCH_smoke.json"}); err == nil {
		t.Error("-out onto the -check baseline was accepted")
	}
	unchanged("-out onto -check")

	// A 3-query run is not comparable with the 6-query baseline: the gate
	// says so instead of passing on the shape.
	shrunk := []string{"run", "-q", "-topic", "mine", "-strategies", "CA,BL,adaptive",
		"-zipf", "0.8", "-queries", "3", "-check", "BENCH_smoke.json"}
	if err := run(shrunk); err == nil {
		t.Error("a 3-query run passed the 6-query baseline's gate")
	}
	unchanged("shrunk run")
}
