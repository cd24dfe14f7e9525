package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
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
	// The footer links the run to its full trace document.
	for _, want := range []string{"trace: q", "/debug/trace/q"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace footer missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceObsURL(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-alg", "PL", "-trace", "-obs", "127.0.0.1:8100"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "http://127.0.0.1:8100/debug/trace/q") {
		t.Errorf("footer missing full coordinator URL:\n%s", out)
	}
}

func TestTraceURL(t *testing.T) {
	for _, tc := range []struct{ base, want string }{
		{"", "/debug/trace/rq1.json"},
		{"127.0.0.1:8100", "http://127.0.0.1:8100/debug/trace/rq1.json"},
		{"http://coord:8100/", "http://coord:8100/debug/trace/rq1.json"},
		{"https://coord", "https://coord/debug/trace/rq1.json"},
	} {
		if got := traceURL(tc.base, "rq1"); got != tc.want {
			t.Errorf("traceURL(%q) = %q, want %q", tc.base, got, tc.want)
		}
	}
}

// TestRunAdaptiveExplain: the adaptive selector's first choice is the Table 1
// planner's, so on its first run the table1 and calibrated columns agree;
// every run's EXPLAIN lays the three columns side by side, coordinator work
// filed under G.
func TestRunAdaptiveExplain(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-alg", "adaptive", "-explain", "-repeat", "2"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"=== adaptive → PL (run 1/2) ===", "(run 2/2) ==="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "site     phase     table1(ms) calibrated(ms)   measured(ms)\n"); got != 2 {
		t.Errorf("%d three-column EXPLAIN tables, want 2:\n%s", got, out)
	}
	first, _, _ := strings.Cut(out, "(run 2/2)")
	if !strings.Contains(first, "G        I              5.879          5.879") {
		t.Errorf("first run: the coordinator's row is not the same under table1 and calibrated:\n%s", first)
	}
	if strings.Contains(out, "coord ") {
		t.Errorf("coordinator work filed under a placeholder:\n%s", out)
	}
}

func TestRunExplainRunsThePlannersChoice(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-explain"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"planner chose PL:", "=== PL ===", "site     phase  predicted(ms)   measured(ms)\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunStats: -stats prints each global class's entity count, then each
// site's extent of it with per-attribute statistics, a numeric attribute's
// range included.
func TestRunStats(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-stats"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Each unindented line opens a class's section.
	sections := map[string]string{}
	var class string
	for _, line := range strings.SplitAfter(out, "\n") {
		if name, _, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, " ") {
			class = name
		}
		sections[class] += line
	}
	fx := school.New()
	// The paper's Figures 1–5: five students, four teachers, three
	// departments and two addresses, counted over their isomeric copies.
	entities := map[string]int{"Student": 5, "Teacher": 4, "Department": 3, "Address": 2}
	for _, class := range fx.Global.ClassNames() {
		section := sections[class]
		if want := fmt.Sprintf("%s: %d entities, ", class, entities[class]); !strings.HasPrefix(section, want) {
			t.Errorf("%s: section does not open with %q:\n%s", class, want, out)
		}
		gc := fx.Global.Class(class)
		for _, site := range gc.Sites() {
			n := fx.Databases[site].Extent(gc.Constituents[site]).Len()
			if want := fmt.Sprintf("\n  %s: %d objects, ", site, n); !strings.Contains(section, want) {
				t.Errorf("%s: extent line %q missing:\n%s", class, want, section)
			}
		}
	}
	lo, hi := int64(1<<62), int64(0)
	fx.Databases["DB1"].Extent("Student").Scan(func(o *object.Object) bool {
		lo, hi = min(lo, o.Attr("age").Int64()), max(hi, o.Attr("age").Int64())
		return true
	})
	_, db1, _ := strings.Cut(sections["Student"], "  DB1: ")
	_, age, _ := strings.Cut(db1, "\n    age ")
	age, _, _ = strings.Cut(age, "\n")
	if want := fmt.Sprintf("range [%d, %d]", lo, hi); !strings.HasSuffix(age, want) {
		t.Errorf("DB1's student ages span %s; the age line reads %q", want, age)
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
	for _, alg := range []string{"NOPE", "auto"} {
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
