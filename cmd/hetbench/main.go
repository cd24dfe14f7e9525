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
// It runs a registered topic — strategies or figures (the paper's Figures
// 9–11 study) — on its canonical spec (internal/bench/topics.go) and gates
// it (exit 1 on failure): strategies against the committed
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
// A new matrix is a new registered topic. Identical seeds reproduce
// byte-identical cell results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"github.com/hetfed/hetfed/internal/bench"
	"github.com/hetfed/hetfed/internal/version"
)

func main() {
	// -h prints the usage and asks for nothing else: not a failure.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		os.Exit(1)
	}
}

const usage = "usage: hetbench run -topic T [-out F] [-q] (-h for help)"

func run(args []string) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:])
	case "-h", "-help", "--help":
		fmt.Fprintln(os.Stderr, usage)
		return nil
	case "-version", "--version", "version":
		fmt.Println("hetbench", version.String())
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q; %s", args[0], usage)
	}
}

// runCmd runs one registered topic on its canonical spec. One path loads
// the baseline, runs, writes where -out says and applies the gate.
func runCmd(args []string) error {
	fs := flag.NewFlagSet("hetbench run", flag.ContinueOnError)
	var (
		topic = fs.String("topic", "", "registered topic to run on its canonical spec: strategies or figures")
		out   = fs.String("out", "", "report path (\"-\" for stdout; default: write nothing)")
		quiet = fs.Bool("q", false, "suppress per-cell progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := bench.LookupTopic(*topic)
	if err != nil {
		return err
	}

	// The committed report is the baseline. It is loaded before anything is
	// written, and -out naming it regenerates it, ungated.
	baselinePath := "BENCH_" + t.Name + ".json"
	var baseline *bench.Report
	if t.Baseline && !sameFile(*out, baselinePath) {
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
