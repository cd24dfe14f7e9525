// Command hetbench is the repository's one experiment harness, with one
// verb: run. Its matrix sweeps execution strategy × workload × fault plan on
// the discrete-event fabric, runs each workload's seeded query stream in
// every cell, and reports both the client-observed latency distribution
// (virtual time) and the engine's own truth (bytes moved, modeled work,
// degraded/maybe fractions). Reports are stable, diffable BENCH_<topic>.json
// files in one envelope (schema, topic, version, seed, spec, cells).
// Everything it runs is on the simulator: wall-clock speed over TCP and the
// WAL's write and recovery cost are measured by the benchmark/ module (bash
// benchmark/run.sh), and the live chaos suite is a test (go test
// ./internal/antientropy/).
//
// Run a registered topic — strategies or figures (the paper's Figures 9–11
// study) — on its canonical spec (internal/bench/topics.go) and gate it
// (exit 1 on failure): strategies against the committed
// BENCH_strategies.json at a 10 % tolerance, figures on the shapes the paper
// claims:
//
//	hetbench run -topic strategies
//	hetbench run -topic figures      # prints each figure's two tables
//
// Nothing is written unless -out says where; regenerating a committed
// report is -out BENCH_<topic>.json (strategies then skips its gate — it is
// replacing the baseline, not being judged by it):
//
//	hetbench run -topic strategies -out BENCH_strategies.json
//
// Run an ad-hoc matrix under a topic name of your own, optionally gated
// against any earlier matrix report of the same load shape (a figures
// report is refused):
//
//	hetbench run -topic mine -out BENCH_mine.json \
//	    -strategies CA,BL,PL -workloads school,table2 \
//	    -faults none,kill:DB3 -queries 40 -seed 42
//	hetbench run -topic mine -strategies CA,BL,PL ... -check BENCH_mine.json
//
// Fault specs: none, kill:SITE, drop:SITE:N, delay:SITE:AMOUNT. Identical
// seeds reproduce byte-identical cell results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/hetfed/hetfed/internal/bench"
	"github.com/hetfed/hetfed/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		os.Exit(1)
	}
}

const usage = "usage: hetbench run [flags] (-h for help)"

func run(args []string) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:])
	case "-version", "--version", "version":
		fmt.Println("hetbench", version.String())
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q; %s", args[0], usage)
	}
}

// matrixFlags registers the sweep-dimension flags of an ad-hoc matrix.
func matrixFlags(fs *flag.FlagSet) (get func() bench.MatrixSpec) {
	var (
		strategies = fs.String("strategies", "CA,BL,PL", "comma-separated strategies: CA, BL, PL, SBL, SPL")
		workloads  = fs.String("workloads", "school", "comma-separated workloads: school, table2, table2eq")
		faults     = fs.String("faults", "none", "comma-separated fault plans: none, kill:SITE, drop:SITE:N, delay:SITE:AMOUNT")
		queries    = fs.Int("queries", 20, "queries per cell")
		zipf       = fs.Float64("zipf", 0.9, "Zipfian skew over query variants (0 = uniform)")
		variants   = fs.Int("variants", 3, "number of query variants under the skew")
		scale      = fs.Float64("scale", 0.02, "Table 2 extent scale for the table2 workloads (1 = paper scale)")
		seed       = fs.Int64("seed", 42, "root seed: workload draws, variant skew")
	)
	return func() bench.MatrixSpec {
		return bench.MatrixSpec{
			Strategies: splitList(*strategies),
			Workloads:  splitList(*workloads),
			Faults:     splitList(*faults),
			Queries:    *queries,
			Zipf:       *zipf,
			Variants:   *variants,
			Scale:      *scale,
			Seed:       *seed,
		}
	}
}

// runCmd runs one topic: a registered one on its canonical spec, or — when
// matrix flags are given — an ad-hoc matrix under the given name. One path
// loads the baseline, runs, writes where -out says and applies the gate.
func runCmd(args []string) error {
	fs := flag.NewFlagSet("hetbench run", flag.ContinueOnError)
	get := matrixFlags(fs)
	matrixFlagNames := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { matrixFlagNames[f.Name] = true })
	var (
		topic     = fs.String("topic", "bench", "registered topic to run on its canonical spec, or the name of an ad-hoc matrix")
		out       = fs.String("out", "", "report path (\"-\" for stdout; default: write nothing)")
		checkPath = fs.String("check", "", "baseline matrix report to gate against (default for strategies: the committed BENCH_strategies.json); regressions exit non-zero")
		quiet     = fs.Bool("q", false, "suppress per-cell progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var adhoc []string
	fs.Visit(func(f *flag.Flag) {
		if matrixFlagNames[f.Name] {
			adhoc = append(adhoc, "-"+f.Name)
		}
	})
	t, err := bench.LookupTopic(*topic)
	switch {
	case err != nil && len(adhoc) == 0:
		return fmt.Errorf("%w; an ad-hoc matrix needs at least one matrix flag", err)
	case err == nil && len(adhoc) > 0:
		return fmt.Errorf("topic %s runs its canonical spec; %s describe an ad-hoc matrix — give it a topic name of its own",
			t.Name, strings.Join(adhoc, " "))
	case err != nil:
		t = bench.Topic{Name: *topic, Spec: get()}
	}

	// The baseline is loaded before anything is written, and never written
	// over: -out naming a matrix topic's committed report regenerates it,
	// ungated; naming an explicit -check file is a contradiction.
	baselinePath, committed := *checkPath, "BENCH_"+t.Name+".json"
	if baselinePath == "" && t.Baseline && !sameFile(*out, committed) {
		baselinePath = committed
	} else if baselinePath != "" && sameFile(*out, baselinePath) {
		return fmt.Errorf("-out %s would overwrite the -check baseline", *out)
	}
	var baseline *bench.Report
	if baselinePath != "" {
		if baseline, err = readMatrixReport(baselinePath); err != nil {
			return err
		}
	}

	report, runErr := runTopic(t, *quiet)
	if report != nil {
		// A self-gating run that failed its gate still wrote what it measured.
		if err := emit(report, *out); err != nil {
			return err
		}
	}
	if runErr != nil || baseline == nil {
		return runErr
	}
	return gate(baseline, report, baselinePath)
}

// emit writes the report where -out says: nowhere, stdout, or a file. A
// figures report's tables go to stdout unless the JSON does.
func emit(report *bench.Report, out string) error {
	if cells, ok := report.Cells.([]bench.FigureCell); ok && out != "-" {
		fmt.Print(bench.FigureTables(cells))
	}
	switch out {
	case "":
		return nil
	case "-":
		data, err := report.JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := report.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// gate applies the baseline diff and reports its verdict.
func gate(baseline, report *bench.Report, baselinePath string) error {
	if violations := bench.Check(baseline, report); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "regression:", v)
		}
		return fmt.Errorf("%d regression(s) vs %s at tolerance 10%%", len(violations), baselinePath)
	}
	fmt.Printf("no regressions in %d cells vs %s (tolerance 10%%)\n", len(baseline.Results()), baselinePath)
	return nil
}

// readMatrixReport loads a baseline the gate can judge: a self-gating
// topic's has no matrix cells, and would pass over zero of them.
func readMatrixReport(path string) (*bench.Report, error) {
	r, err := bench.ReadReport(path)
	if err != nil {
		return nil, err
	}
	if _, ok := r.Cells.([]bench.CellResult); !ok {
		return nil, fmt.Errorf("%s: topic %s has no matrix cells; it gates on its own invariants (hetbench run -topic %[2]s)", path, r.Topic)
	}
	return r, nil
}

// sameFile reports whether two paths name one file, existing or not.
func sameFile(a, b string) bool {
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	return a != "" && b != "" && errA == nil && errB == nil && absA == absB
}

// runTopic executes the topic under signal cancellation with progress on
// stderr.
func runTopic(t bench.Topic, quiet bool) (*bench.Report, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }
	if quiet {
		progress = nil
	}
	return t.Run(ctx, progress)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
