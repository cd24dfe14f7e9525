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
// it (exit 1 on failure): the run must reproduce the committed
// BENCH_<topic>.json in every key but "version", and figures must also show
// the shapes the paper claims:
//
//	hetbench run -topic strategies
//	hetbench run -topic figures      # prints each figure's two tables
//
// Nothing is written unless -out says where; regenerating a committed
// report is -out BENCH_<topic>.json (the run then skips its gate — it is
// replacing the report, not being judged by it):
//
//	hetbench run -topic strategies -out BENCH_strategies.json
//
// A new matrix is a new registered topic.
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

// runCmd runs one registered topic on its canonical spec. One path reads
// the committed report, runs, writes where -out says and checks the run.
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

	// The committed report is read before anything runs or is written, and
	// -out naming it regenerates it, ungated.
	committedPath := "BENCH_" + t.Name + ".json"
	committed, err := os.ReadFile(committedPath)
	gated := !sameFile(*out, committedPath)
	if gated && err != nil {
		return err
	}

	report, runErr := runTopic(t, *quiet)
	if report != nil {
		// A figures run that failed its shape gate still wrote what it measured.
		if err := emit(report, *out); err != nil {
			return err
		}
	}
	if runErr != nil || !gated {
		return runErr
	}
	if err := report.Reproduces(committed); err != nil {
		return fmt.Errorf("the run does not reproduce %s: %w", committedPath, err)
	}
	fmt.Printf("reproduced %s\n", committedPath)
	return nil
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
