package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"slices"
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
// ones, there is no ad-hoc matrix to fall back on, and run is the one verb.
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
	for _, gone := range []string{"", "mine", "smoke", "adaptive", "durability", "chaos"} {
		if err := run([]string{"run", "-topic", gone}); err == nil || !strings.Contains(err.Error(), "registered: strategies, figures") {
			t.Errorf("hetbench run -topic %q: err = %v, want a refusal naming the registry", gone, err)
		}
	}
	for _, gone := range []string{"check", "slo", "obs", "durability", "chaos"} {
		if err := run([]string{gone, "-in", "BENCH_strategies.json"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") || !strings.Contains(err.Error(), usage) {
			t.Errorf("hetbench %s: err = %v, want unknown subcommand and the usage", gone, err)
		}
	}
	if entries, _ := os.ReadDir("."); len(entries) != 0 {
		t.Errorf("refused runs left %d files behind", len(entries))
	}
}

// TestRunFlags: run takes a registered topic and where to write its report,
// and nothing that reshapes the topic's spec.
func TestRunFlags(t *testing.T) {
	var listed []string
	help, err := capture(t, &os.Stderr, func() error { return run([]string{"run", "-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: err = %v, want flag.ErrHelp", err)
	}
	for _, line := range strings.Split(help, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "  -") {
			listed = append(listed, f[0])
		}
	}
	if want := []string{"-out", "-q", "-topic"}; !slices.Equal(listed, want) {
		t.Errorf("run -h lists %v, want %v:\n%s", listed, want, help)
	}
	for _, gone := range []string{"-strategies", "-workloads", "-faults", "-queries", "-zipf", "-variants", "-scale", "-seed", "-check"} {
		if err := run([]string{"run", "-topic", "strategies", gone, "1"}); err == nil || !strings.Contains(err.Error(), gone) {
			t.Errorf("run %s: err = %v, want a refusal naming it", gone, err)
		}
	}
}

// repoRoot is where the committed reports are.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// committedCopy copies the committed report of topic from root into the
// working directory as BENCH_<as>.json, its bytes changed by edit when edit
// is non-nil.
func committedCopy(t *testing.T, root, topic, as string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCH_"+topic+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		data = edit(data)
	}
	if err := os.WriteFile("BENCH_"+as+".json", data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// drift scales one strategies cell's p50, p99 and net bytes by 0.95 and
// gives it one more maybe row: a drift inside any tolerance, and in net
// bytes, which a tolerance over latency and answer shares never read.
func drift(t *testing.T, data []byte) []byte {
	t.Helper()
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // a cell's 64-bit seed survives the round trip
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	scale := func(m map[string]any, key string, by, plus float64) {
		f, err := m[key].(json.Number).Float64()
		if err != nil {
			t.Fatal(err)
		}
		m[key] = f*by + plus
	}
	for _, c := range doc["cells"].([]any) {
		cell := c.(map[string]any)
		if id := cell["cell"].(map[string]any); id["strategy"] != "BL" || id["workload"] != "school" || id["fault"] != "delay:DB3:5ms" {
			continue
		}
		client, server := cell["client"].(map[string]any), cell["server"].(map[string]any)
		scale(client, "p50_us", 0.95, 0)
		scale(client, "p99_us", 0.95, 0)
		scale(server, "maybe_rows", 1, 1)
		scale(server, "net_bytes", 0.95, 0)
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	t.Fatal("no cell BL/school/delay:DB3:5ms")
	return nil
}

// runStrategies runs the gated `run -q -topic strategies` against the
// BENCH_strategies.json in the working directory.
func runStrategies(t *testing.T) (string, error) {
	t.Helper()
	return captureStdout(t, func() error { return run([]string{"run", "-q", "-topic", "strategies"}) })
}

// TestRunCheck: run -topic strategies passes against the committed report
// whatever its "version" and trailing whitespace, and fails, naming what
// differs, against a copy with a drifted cell or a changed spec.
func TestRunCheck(t *testing.T) {
	root := repoRoot(t)
	inTempDir(t)
	restamp := func(data []byte) []byte {
		stamped := bytes.Replace(data, []byte(`"version": "dev"`), []byte(`"version": "dev+0123456789ab"`), 1)
		if bytes.Equal(stamped, data) {
			t.Fatal(`the committed report is not stamped "version": "dev"`)
		}
		return append(stamped, '\n')
	}
	committedCopy(t, root, "strategies", "strategies", restamp)
	if out, err := runStrategies(t); err != nil || !strings.Contains(out, "reproduced BENCH_strategies.json") {
		t.Errorf("the committed report: err %v, stdout %q", err, out)
	}
	for name, tc := range map[string]struct {
		edit func([]byte) []byte
		want string
	}{
		"drifted": {func(data []byte) []byte { return drift(t, data) }, "cell BL/school/delay:DB3:5ms"},
		"queries": {func(data []byte) []byte {
			edited := bytes.Replace(data, []byte(`"queries": 30,`), []byte(`"queries": 3,`), 1)
			if bytes.Equal(edited, data) {
				t.Fatal(`the committed spec does not read "queries": 30`)
			}
			return edited
		}, "spec:"},
	} {
		committedCopy(t, root, "strategies", "strategies", tc.edit)
		if _, err := runStrategies(t); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal naming %q", name, err, tc.want)
		}
	}
}

// TestRunCheckRefusesSelfGatingReports: the committed report reruns clean,
// and the figures report in its place is refused by topic.
func TestRunCheckRefusesSelfGatingReports(t *testing.T) {
	root := repoRoot(t)
	inTempDir(t)
	committedCopy(t, root, "strategies", "strategies", nil)
	if _, err := runStrategies(t); err != nil {
		t.Errorf("the committed report: %v", err)
	}
	committedCopy(t, root, "figures", "strategies", nil)
	want := "topic:\n  run       \"strategies\"\n  committed \"figures\""
	if _, err := runStrategies(t); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("the figures report as the committed one: err = %v, want a refusal naming %q", err, want)
	}
}

// TestRunNeedsTheCommittedReport: without the committed report in the
// working directory, a run fails at once, before any cell or sweep runs.
func TestRunNeedsTheCommittedReport(t *testing.T) {
	inTempDir(t)
	for _, topic := range registered(t) {
		progress, err := capture(t, &os.Stderr, func() error { return run([]string{"run", "-topic", topic.Name}) })
		if err == nil || !strings.Contains(err.Error(), "BENCH_"+topic.Name+".json") || progress != "" {
			t.Errorf("%s: err = %v, progress %q; want a refusal naming the file before anything runs", topic.Name, err, progress)
		}
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
	if err := run([]string{"run", "-q", "-topic", "strategies"}); err != nil {
		t.Errorf("gated run: %v", err)
	}
	got, err := os.ReadFile("BENCH_strategies.json")
	if err != nil || string(got) != string(marked) {
		t.Fatalf("baseline rewritten (err %v)", err)
	}
	if entries, _ := os.ReadDir("."); len(entries) != 1 {
		t.Fatalf("left %d files behind, want the baseline alone", len(entries))
	}
}

// captureStdout returns what fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// capture returns what fn wrote to *f, one of the standard streams.
func capture(t *testing.T, f **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	w.Close()
	*f = old
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
			data, err := os.ReadFile("BENCH_figures.json")
			if err != nil {
				t.Fatal(err)
			}
			var r struct {
				Topic string
				Cells []bench.FigureCell
			}
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatal(err)
			}
			if r.Topic != "figures" || len(r.Cells) == 0 || r.Cells[0].Figure != sweep {
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
}

// TestHelpIsNotAFailure: `hetbench -h` and `hetbench run -h` print the usage
// and exit 0, with no error line after it. main exits, so each runs in a
// child process.
func TestHelpIsNotAFailure(t *testing.T) {
	if args := os.Getenv("HETBENCH_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"hetbench"}, strings.Fields(args)...)
		main()
		return
	}
	for args, prefix := range map[string]string{"-h": usage, "run -h": "Usage of hetbench run:"} {
		child := osexec.Command(os.Args[0], "-test.run=^TestHelpIsNotAFailure$")
		child.Env = append(os.Environ(), "HETBENCH_MAIN_ARGS="+args)
		var stderr strings.Builder
		child.Stderr = &stderr
		if err := child.Run(); err != nil {
			t.Fatalf("hetbench %s: %v\n%s", args, err, stderr.String())
		}
		help := stderr.String()
		if !strings.HasPrefix(help, prefix) || strings.Contains(help, "\nhetbench: ") {
			t.Errorf("hetbench %s printed, want the usage alone:\n%s", args, help)
		}
	}
}
