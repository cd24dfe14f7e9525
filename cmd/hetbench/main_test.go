package main

import (
	"io"
	"os"
	"path/filepath"
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

// registered resolves the topic table's names, as the header comment and the
// README list them.
func registered(t *testing.T) []bench.Topic {
	t.Helper()
	var topics []bench.Topic
	for _, name := range []string{"strategies", "figures"} {
		topic, err := bench.LookupTopic(name)
		if err != nil || topic.Name != name {
			t.Fatalf("LookupTopic(%q) = %+v, %v", name, topic, err)
		}
		topics = append(topics, topic)
	}
	return topics
}

// TestTopicsResolve: every registered topic resolves by name and carries a
// spec its runner accepts (that it is also the spec behind the committed
// BENCH_T.json is internal/bench's TestCommittedReportsCanonical).
func TestTopicsResolve(t *testing.T) {
	for _, topic := range registered(t) {
		if err := topic.Validate(); err != nil {
			t.Errorf("topic %s: %v", topic.Name, err)
		}
	}
}

// TestTopicSelection: an unknown topic is an error naming the registered
// ones unless matrix flags make it an ad-hoc matrix, a registered topic
// refuses matrix flags instead of silently ignoring them, and run is the one
// verb.
func TestTopicSelection(t *testing.T) {
	inTempDir(t)
	err := run([]string{"run", "-topic", "chaso"})
	if err == nil {
		t.Fatal("unknown topic ran")
	}
	for _, topic := range registered(t) {
		if !strings.Contains(err.Error(), topic.Name) {
			t.Errorf("error %q does not name registered topic %s", err, topic.Name)
		}
	}
	for _, gone := range []string{"smoke", "adaptive", "durability", "chaos"} {
		if err := run([]string{"run", "-topic", gone}); err == nil || !strings.Contains(err.Error(), "registered: strategies, figures") {
			t.Errorf("hetbench run -topic %s: err = %v, want a refusal naming the registry", gone, err)
		}
	}
	if err := run([]string{"run", "-topic", "strategies", "-queries", "3"}); err == nil || !strings.Contains(err.Error(), "-queries") {
		t.Errorf("registered topic with a matrix flag: err = %v, want a refusal naming -queries", err)
	}
	// The strategy is one the caller names; there is no selector to pick one.
	if err := run([]string{"run", "-q", "-topic", "mine", "-strategies", "CA,BL,adaptive"}); err == nil ||
		!strings.Contains(err.Error(), "want CA, BL, PL, SBL or SPL") {
		t.Errorf("-strategies CA,BL,adaptive: err = %v, want the strategy list", err)
	}
	for _, gone := range []string{"check", "slo", "obs", "durability", "chaos"} {
		if err := run([]string{gone, "-in", "BENCH_strategies.json"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") || !strings.Contains(err.Error(), usage) {
			t.Errorf("hetbench %s: err = %v, want unknown subcommand and the usage", gone, err)
		}
	}
	if err := run([]string{"run", "-q", "-topic", "mine", "-strategies", "CA", "-queries", "2", "-out", "BENCH_mine.json"}); err != nil {
		t.Fatalf("ad-hoc matrix: %v", err)
	}
	if r, err := bench.ReadReport("BENCH_mine.json"); err != nil || r.Topic != "mine" || len(r.Results()) != 1 {
		t.Errorf("ad-hoc report = %+v, %v; want topic mine with one cell", r, err)
	}
}

// TestRunCheck: run -check passes a matrix against its own earlier report
// and fails it against a baseline whose p99 was halved.
func TestRunCheck(t *testing.T) {
	inTempDir(t)
	mine := []string{"run", "-q", "-topic", "mine", "-strategies", "CA,BL", "-queries", "4"}
	if err := run(append(mine, "-out", "old.json")); err != nil {
		t.Fatal(err)
	}
	if err := run(append(mine, "-check", "old.json")); err != nil {
		t.Errorf("same matrix: %v", err)
	}
	better, err := bench.ReadReport("old.json")
	if err != nil {
		t.Fatal(err)
	}
	better.Results()[0].Client.P99Micros /= 2
	if err := better.WriteFile("better.json"); err != nil {
		t.Fatal(err)
	}
	if err := run(append(mine, "-check", "better.json")); err == nil {
		t.Error("a p99 twice the baseline's passed the gate")
	}
}

// TestRunNeverWritesTheBaseline: the gated invocation reads the baseline it
// is judged by and writes nothing — it used to overwrite the committed report
// first and then compare the fresh report with itself.
func TestRunNeverWritesTheBaseline(t *testing.T) {
	inTempDir(t)
	if err := run([]string{"run", "-q", "-topic", "strategies", "-out", "BENCH_strategies.json"}); err != nil {
		t.Fatal(err)
	}
	baseline, err := os.ReadFile("BENCH_strategies.json")
	if err != nil {
		t.Fatal(err)
	}
	// A trailing blank line marks this copy: any rewrite would drop it.
	marked := append(baseline, '\n')
	if err := os.WriteFile("BENCH_strategies.json", marked, 0o644); err != nil {
		t.Fatal(err)
	}
	unchanged := func(after string) {
		t.Helper()
		got, err := os.ReadFile("BENCH_strategies.json")
		if err != nil || string(got) != string(marked) {
			t.Fatalf("%s: baseline rewritten (err %v)", after, err)
		}
		if entries, _ := os.ReadDir("."); len(entries) != 1 {
			t.Fatalf("%s: left %d files behind, want the baseline alone", after, len(entries))
		}
	}

	for _, args := range [][]string{
		{"run", "-q", "-topic", "strategies"},
		{"run", "-q", "-topic", "strategies", "-check", "BENCH_strategies.json"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
		unchanged(strings.Join(args, " "))
	}
	if err := run([]string{"run", "-q", "-topic", "strategies", "-check", "BENCH_strategies.json", "-out", "./BENCH_strategies.json"}); err == nil {
		t.Error("-out onto the -check baseline was accepted")
	}
	unchanged("-out onto -check")

	// A 3-query run is not comparable with the 30-query baseline: the gate
	// says so instead of passing on the shape.
	shrunk := []string{"run", "-q", "-topic", "mine", "-strategies", "CA,BL,PL,SBL,SPL",
		"-workloads", "school,table2", "-faults", "none,kill:DB3,delay:DB3:5ms", "-queries", "3",
		"-check", "BENCH_strategies.json"}
	if err := run(shrunk); err == nil {
		t.Error("a 3-query run passed the 30-query baseline's gate")
	}
	unchanged("shrunk run")
}

// TestRunCheckRefusesSelfGatingReports: over every committed report, run
// -check gates against a matrix topic's — the committed strategies report
// reruns with no regressions — and refuses a self-gating topic's by name,
// before anything runs: it has no matrix cells, and a gate over zero of them
// would pass.
func TestRunCheckRefusesSelfGatingReports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range registered(t) {
		path := filepath.Join(root, "BENCH_"+topic.Name+".json")
		_, matrix := topic.Spec.(bench.MatrixSpec)
		args := []string{"run", "-q", "-topic", topic.Name, "-check", path}
		if !matrix {
			args = []string{"run", "-q", "-topic", "mine", "-strategies", "CA", "-check", path}
		}
		_, err := captureStdout(t, func() error { return run(args) })
		switch {
		case matrix && err != nil:
			t.Errorf("%s: %v", topic.Name, err)
		case !matrix && err == nil:
			t.Errorf("-check passed %s's report, which has no matrix cells", topic.Name)
		case !matrix && !(strings.Contains(err.Error(), "topic "+topic.Name) && strings.Contains(err.Error(), "own invariants")):
			t.Errorf("%s: refusal %q does not name the topic and how it is gated", topic.Name, err)
		}
	}
}

// captureStdout returns what fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// TestFiguresTopic: the figures topic at test size, through the two steps
// `hetbench run -topic figures` takes — the report lands where -out says
// and each sweep's tables on stdout; a spec that could not run is refused
// before anything is drawn, with no report to write.
func TestFiguresTopic(t *testing.T) {
	inTempDir(t)
	figures := func(samples int, scale float64, sweeps ...string) bench.Topic {
		return bench.Topic{Name: "figures", Spec: bench.FigureSpec{Samples: samples, Scale: scale, Seed: 1, Sweeps: sweeps}}
	}
	for sweep, wants := range map[string][]string{
		"figure9":    {"objects per constituent class", "(a) total execution time (ms)", "(b) response time (ms)", "CA", "BL", "PL"},
		"faults":     {"dead component databases", "\n2 "},
		"signatures": {"SBL", "SPL"},
	} {
		t.Run(sweep, func(t *testing.T) {
			out, err := captureStdout(t, func() error {
				report, err := runTopic(figures(3, 0.04, sweep), true)
				if err != nil {
					return err
				}
				return emit(report, "BENCH_figures.json")
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range append(wants, "wrote BENCH_figures.json") {
				if !strings.Contains(out, want) {
					t.Errorf("stdout missing %q:\n%s", want, out)
				}
			}
			r, err := bench.ReadReport("BENCH_figures.json")
			if err != nil {
				t.Fatal(err)
			}
			if cells, _ := r.Cells.([]bench.FigureCell); r.Topic != "figures" || len(cells) == 0 || cells[0].Figure != sweep {
				t.Errorf("report = topic %s, cells %+v; want %s's cells", r.Topic, r.Cells, sweep)
			}
			if err := os.Remove("BENCH_figures.json"); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, topic := range map[string]bench.Topic{
		"unknown_sweep": figures(3, 0.04, "99"),
		"no_samples":    figures(0, 0.04, "figure9"),
		"no_scale":      figures(3, 0, "figure9"),
	} {
		t.Run(name, func(t *testing.T) {
			if report, err := runTopic(topic, true); err == nil || report != nil {
				t.Errorf("ran anyway: report %v, err %v", report, err)
			} else if name == "unknown_sweep" && !strings.Contains(err.Error(), "figure9, figure10") {
				t.Errorf("refusal %q does not list the registered sweeps", err)
			}
		})
	}
	if err := run([]string{"run", "-topic", "figures", "-scale", "0.1"}); err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Errorf("figures with a matrix flag: err = %v, want a refusal naming -scale", err)
	}
}
