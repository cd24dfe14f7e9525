// Command hetsim runs the paper's performance study: it regenerates the
// series behind Figures 9, 10 and 11 (and the repository's two extra
// ablations) by executing the CA, BL and PL strategies on randomized
// Table 2 workloads inside the discrete-event simulator.
//
// Usage:
//
//	hetsim -figure 9                 # objects-per-class sweep (Fig. 9a/9b)
//	hetsim -figure 10 -samples 50    # component-database sweep (Fig. 10a/10b)
//	hetsim -figure 11 -csv out.csv   # selectivity sweep (Fig. 11a/11b)
//	hetsim -figure signatures        # E7: signature-assisted variants
//	hetsim -figure network           # E8: network-rate sensitivity
//	hetsim -figure planner           # E9: cost-based strategy selection
//	hetsim -figure indexes           # E10: secondary-index ablation
//	hetsim -figure all -scale 0.2    # everything, scaled-down extents
//
//	hetsim -trace -metrics           # instrumented demo query, no sweep
//
// The -scale flag multiplies the Table 2 extent sizes (5000–6000 objects
// per constituent class) so the full study fits any time budget; shapes are
// stable under scaling.
//
// -trace and -metrics skip the sweeps and instead run the school example's
// Q1 under every strategy inside the simulator, printing the span tree
// (virtual times) and the per-strategy metrics deltas — a quick way to see
// what one simulated execution does.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/sim"
	"github.com/hetfed/hetfed/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hetsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hetsim", flag.ContinueOnError)
	var (
		figure  = fs.String("figure", "all", "experiment: 9, 10, 11, signatures, network, indexes, faults, planner, or all")
		samples = fs.Int("samples", 25, "randomized Table 2 samples per swept point (paper: 500)")
		seed    = fs.Int64("seed", 1, "base random seed")
		scale   = fs.Float64("scale", 1.0, "multiplier on the Table 2 extent sizes")
		csvPath = fs.String("csv", "", "also write the series to this CSV file")
		doTrace = fs.Bool("trace", false, "run an instrumented demo query and print its span tree")
		doMetrs = fs.Bool("metrics", false, "run an instrumented demo query and print its metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *doTrace || *doMetrs {
		return runInstrumentedDemo(*doTrace, *doMetrs)
	}

	cfg := sim.DefaultConfig()
	cfg.Samples = *samples
	cfg.Seed = *seed
	if *scale != 1.0 {
		lo := int(float64(cfg.Ranges.NObjects[0]) * *scale)
		hi := int(float64(cfg.Ranges.NObjects[1]) * *scale)
		if lo < 1 {
			lo = 1
		}
		if hi < lo {
			hi = lo
		}
		cfg.Ranges.NObjects = [2]int{lo, hi}
	}

	type runner struct {
		name string
		run  func() (*sim.Experiment, error)
	}
	runners := map[string]runner{
		"9": {"figure 9", func() (*sim.Experiment, error) {
			return sim.Figure9(cfg, scaledCounts(*scale, []int{1000, 2000, 3000, 4000, 5000, 6000}))
		}},
		"10": {"figure 10", func() (*sim.Experiment, error) {
			return sim.Figure10(cfg, nil)
		}},
		"11": {"figure 11", func() (*sim.Experiment, error) {
			c := cfg
			return sim.Figure11(c, nil)
		}},
		"signatures": {"signature ablation", func() (*sim.Experiment, error) {
			return sim.SignatureAblation(cfg, scaledCounts(*scale, []int{1000, 2000, 4000, 6000}))
		}},
		"network": {"network sweep", func() (*sim.Experiment, error) {
			return sim.NetworkSweep(cfg, nil)
		}},
		"indexes": {"index ablation", func() (*sim.Experiment, error) {
			return sim.IndexAblation(cfg, nil)
		}},
		"faults": {"fault sweep", func() (*sim.Experiment, error) {
			return sim.FaultSweep(cfg, nil)
		}},
	}

	var order []string
	switch strings.ToLower(*figure) {
	case "planner":
		report, err := sim.PlannerAccuracy(cfg)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil
	case "all":
		order = []string{"9", "10", "11", "signatures", "network", "indexes", "faults"}
	default:
		if _, ok := runners[*figure]; !ok {
			return fmt.Errorf("unknown figure %q (want 9, 10, 11, signatures, network, indexes, faults, planner, all)", *figure)
		}
		order = []string{*figure}
	}

	var csv strings.Builder
	for i, key := range order {
		ex, err := runners[key].run()
		if err != nil {
			return fmt.Errorf("%s: %w", runners[key].name, err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(ex.Table())
		if csv.Len() == 0 {
			csv.WriteString(ex.CSV())
		} else {
			// Skip the repeated header.
			body := ex.CSV()
			if idx := strings.IndexByte(body, '\n'); idx >= 0 {
				csv.WriteString(body[idx+1:])
			}
		}
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return nil
}

// runInstrumentedDemo executes the school example's Q1 under every strategy
// on the discrete-event simulator with the observability layer wired in,
// printing what -trace/-metrics print elsewhere in the toolset.
func runInstrumentedDemo(doTrace, doMetrics bool) error {
	fx := school.New()
	var tracer trace.Tracer
	reg := metrics.New()
	engine, err := exec.New(exec.Config{
		Global:      fx.Global,
		Coordinator: "G",
		Databases:   fx.Databases,
		Tables:      fx.Mapping,
		Tracer:      &tracer,
		Metrics:     reg,
		Signatures:  signature.Build(fx.Databases),
	})
	if err != nil {
		return err
	}
	q, err := query.Parse(school.Q1)
	if err != nil {
		return err
	}
	b, err := query.Bind(q, fx.Global)
	if err != nil {
		return err
	}
	fmt.Printf("demo query: %s\n", q)
	prev := reg.Snapshot()
	for _, alg := range exec.Algorithms() {
		tracer.Reset()
		ans, m, err := engine.Run(fabric.NewSim(fabric.DefaultRates(), engine.Sites()), alg, b)
		if err != nil {
			return fmt.Errorf("%v: %w", alg, err)
		}
		fmt.Printf("\n=== %v ===  certain %d, maybe %d, simulated response %.2f ms\n",
			alg, len(ans.Certain), len(ans.Maybe), m.ResponseMicros/1e3)
		if doTrace {
			fmt.Println("span tree:")
			fmt.Print(tracer.RenderTree())
		}
		if doMetrics {
			cur := reg.Snapshot()
			fmt.Println("metrics:")
			fmt.Print(cur.Delta(prev).Text())
			prev = cur
		}
	}
	return nil
}

func scaledCounts(scale float64, base []int) []int {
	if scale == 1.0 {
		return base
	}
	out := make([]int, len(base))
	for i, n := range base {
		v := int(float64(n) * scale)
		if v < 10 {
			v = 10
		}
		out[i] = v
	}
	return out
}
