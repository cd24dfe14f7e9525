package main

import (
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
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

func TestRunDefaultQ1(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-alg", "BL"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"gs4(Hedy, Kelly)", "gs2(Tony, Haley)", "unknown:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	out, err := capture(t, func() error { return run(nil) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"=== CA ===", "=== BL ===", "=== PL ==="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTrace(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-alg", "PL", "-trace"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"step flow:", "PL_C1", "PL_C2", "PL_G2"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// The footer names the run's profile; nothing serves it once hetql
	// exits, so it links to no surface.
	if !strings.Contains(out, "\ntrace: q") || strings.Contains(out, "/debug/trace/") {
		t.Errorf("trace footer is not the bare profile ID:\n%s", out)
	}
}

// TestRunObsFlagIsGone: hetql's profiles live in a process that serves no
// surface, so there is no observability base URL to link a trace under.
func TestRunObsFlagIsGone(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"-alg", "PL", "-trace", "-obs", "127.0.0.1:8100"})
	})
	if err == nil || !strings.Contains(err.Error(), "-obs") {
		t.Errorf("-obs accepted (err %v)", err)
	}
}

// TestRunExplainPrintsMeasuredTables: -explain prints one measured-only
// site × phase table per strategy run, the coordinator's work filed under G.
func TestRunExplainPrintsMeasuredTables(t *testing.T) {
	for _, tc := range []struct {
		args []string
		runs []string
	}{
		{[]string{"-explain"}, []string{"CA", "BL", "PL"}},
		{[]string{"-alg", "PL", "-explain"}, []string{"PL"}},
	} {
		out, err := capture(t, func() error { return run(tc.args) })
		if err != nil {
			t.Fatalf("%v: run: %v", tc.args, err)
		}
		if got := strings.Count(out, "site     phase   measured(ms)\n"); got != len(tc.runs) {
			t.Errorf("%v: %d measured tables, want %d:\n%s", tc.args, got, len(tc.runs), out)
		}
		for _, alg := range tc.runs {
			if !strings.Contains(out, "EXPLAIN ANALYZE ("+alg+"):\n") {
				t.Errorf("%v: no EXPLAIN for %s:\n%s", tc.args, alg, out)
			}
		}
		if !strings.Contains(out, "\nG        I ") {
			t.Errorf("%v: no coordinator row:\n%s", tc.args, out)
		}
	}
}

// TestRunRepeatFlagIsGone: each run builds a fresh simulator and fault plan,
// so a second run of a strategy printed the same bytes as the first.
func TestRunRepeatFlagIsGone(t *testing.T) {
	_, err := capture(t, func() error { return run([]string{"-repeat", "2"}) })
	if err == nil || !strings.Contains(err.Error(), "-repeat") {
		t.Errorf("-repeat accepted (err %v)", err)
	}
}

// TestRunStatsFlagIsGone: the catalog statistics fed the cost-based
// strategy chooser, which is gone; hetql runs the strategy it is given.
func TestRunStatsFlagIsGone(t *testing.T) {
	_, err := capture(t, func() error { return run([]string{"-stats"}) })
	if err == nil || !strings.Contains(err.Error(), "-stats") {
		t.Errorf("-stats accepted (err %v)", err)
	}
}

func TestRunShow(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-show"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"=== DB1 ===", "missing at DB1: speciality", "global schema"} {
		if !strings.Contains(out, want) {
			t.Errorf("show missing %q", want)
		}
	}
}

func TestRunExportAndReload(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-export"}) })
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fed.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, err := capture(t, func() error { return run([]string{"-fed", path, "-alg", "CA"}) })
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if !strings.Contains(out2, "Hedy, Kelly") {
		t.Errorf("reloaded federation answered wrong:\n%s", out2)
	}
}

func TestRunErrors(t *testing.T) {
	for _, alg := range []string{"NOPE", "auto", "adaptive"} {
		if _, err := capture(t, func() error { return run([]string{"-alg", alg}) }); err == nil {
			t.Errorf("algorithm %q accepted", alg)
		}
	}
	if _, err := capture(t, func() error { return run([]string{"-query", "not a query"}) }); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := capture(t, func() error { return run([]string{"-fed", "/nonexistent.json"}) }); err == nil {
		t.Error("missing federation file accepted")
	}
}

// TestHelpIsNotAFailure: `hetql -h` prints the usage and exits 0, with no
// error line after it. main exits, so it runs in a child process.
func TestHelpIsNotAFailure(t *testing.T) {
	if args := os.Getenv("HETQL_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"hetql"}, strings.Fields(args)...)
		main()
		return
	}
	child := osexec.Command(os.Args[0], "-test.run=^TestHelpIsNotAFailure$")
	child.Env = append(os.Environ(), "HETQL_MAIN_ARGS=-h")
	var stderr strings.Builder
	child.Stderr = &stderr
	if err := child.Run(); err != nil {
		t.Fatalf("hetql -h: %v\n%s", err, stderr.String())
	}
	help := stderr.String()
	if !strings.HasPrefix(help, "Usage of hetql:") || strings.Contains(help, "\nhetql: ") {
		t.Errorf("hetql -h printed, want the usage alone:\n%s", help)
	}
}
