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
	for _, name := range []string{"smoke", "adaptive", "strategies", "durability", "chaos", "figures"} {
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
// ones unless matrix flags make it an ad-hoc matrix, and a registered topic
// refuses matrix flags instead of silently ignoring them.
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

// TestCheckAndSLORefuseSelfGatingReports: over every committed report, check
// and slo -in judge a matrix topic's and refuse a self-gating topic's by
// name — they used to find zero matrix cells in it and pass ("no
// regressions in 0 cells", "SLO met in all 0 cells").
func TestCheckAndSLORefuseSelfGatingReports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range registered(t) {
		path := filepath.Join(root, "BENCH_"+topic.Name+".json")
		_, matrix := topic.Spec.(bench.MatrixSpec)
		for _, args := range [][]string{
			{"check", "-old", path, "-new", path},
			{"slo", "-in", path, "-rules", "degraded_queries <= 100%", "-allow-errors"},
		} {
			_, err := captureStdout(t, func() error { return run(args) }) // slo prints every cell
			switch {
			case matrix && err != nil:
				t.Errorf("%s %s: %v", args[0], topic.Name, err)
			case !matrix && err == nil:
				t.Errorf("%s passed %s's report, which has no matrix cells", args[0], topic.Name)
			case !matrix && !(strings.Contains(err.Error(), "topic "+topic.Name) && strings.Contains(err.Error(), "own invariants")):
				t.Errorf("%s %s: refusal %q does not name the topic and how it is gated", args[0], topic.Name, err)
			}
		}
	}
}

// TestSLORules: hetbench slo holds a stored report's cells to objectives in
// bench.Rule's grammar — pass and fail, the limiting rule named, client
// errors failing a cell unless allowed, and a rule a report cannot answer
// refused by name when it is parsed, before anything is judged.
func TestSLORules(t *testing.T) {
	inTempDir(t)
	write := func(path string, client bench.ClientStats, server bench.ServerStats) {
		t.Helper()
		r := &bench.Report{Schema: bench.SchemaVersion, Topic: "mine", Spec: bench.MatrixSpec{},
			Cells: []bench.CellResult{{
				Cell:   bench.Cell{Strategy: "BL", Workload: "school", Fault: "none"},
				Client: client, Server: server,
			}}}
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	write("good.json", bench.ClientStats{QPS: 2500, P99Micros: 40000, Completed: 100}, bench.ServerStats{MaybeFrac: 0.15})
	write("errors.json", bench.ClientStats{QPS: 2500, Errors: 3}, bench.ServerStats{})
	const objective = "throughput >= 2000; query_latency p99 < 50ms; maybe_rows <= 20%"
	const cell = "BL/school/none"
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // "" = every cell passes
		wants   []string
	}{
		{"pass", []string{"-in", "good.json", "-rules", objective}, "",
			// Four checks: the three rules and the error count, which has the
			// least headroom of a passing cell (none).
			[]string{"PASS " + cell + "  (limiting: errors)", "2500.00/s", "40.00ms", "15.00%", "SLO met in all 1 cells"}},
		{"pass, tightest rule", []string{"-in", "good.json", "-rules", objective, "-allow-errors"}, "",
			[]string{"PASS " + cell + "  (limiting: query_latency p99 < 50ms)"}},
		{"fail", []string{"-in", "good.json", "-rules", "floor: throughput >= 3000; query_latency p99 < 50ms; maybe_rows <= 20%"},
			"SLO missed in 1 of 1 cells",
			[]string{"FAIL " + cell + "  (limiting: floor)", "VIOLATED"}},
		// Two violations: the deeper one is limiting (the maybe share at 3 ×
		// its cap is deeper than throughput a sixth below its floor).
		{"fail, deepest violation", []string{"-in", "good.json", "-rules", "throughput >= 3000; maybe_rows <= 5%"},
			"SLO missed", []string{"(limiting: maybe_rows <= 5%)"}},
		{"errors fail a cell", []string{"-in", "errors.json", "-rules", "throughput >= 2000"},
			"SLO missed", []string{"(limiting: errors)", "errors", "3  VIOLATED"}},
		{"unless allowed", []string{"-in", "errors.json", "-rules", "throughput >= 2000", "-allow-errors"}, "",
			[]string{"PASS " + cell}},
		{"no objective", []string{"-in", "good.json"}, "no rules", nil},
		{"a quantile the report does not keep", []string{"-in", "good.json", "-rules", "query_latency p75 < 1s"},
			"query_latency p75", nil},
		{"a series the report does not keep", []string{"-in", "good.json", "-rules", objective + "; request_errors < 1%"},
			"request_errors", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := captureStdout(t, func() error { return run(append([]string{"slo"}, tc.args...)) })
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q\n%s", err, tc.wantErr, out)
			}
			for _, want := range tc.wants {
				if !strings.Contains(out, want) {
					t.Errorf("stdout missing %q:\n%s", want, out)
				}
			}
			if tc.wants == nil && out != "" {
				t.Errorf("a refused objective still judged cells:\n%s", out)
			}
		})
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
		"planner":    {"picked the fastest strategy: "},
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
