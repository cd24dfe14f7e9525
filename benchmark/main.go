// Command benchmark is the repository's benchmark: one command, three
// workloads, five end-to-end metrics and an outside-in per-layer
// breakdown. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// defaultSeconds is the measured window of every workload; BENCHMARK.json
// records the same number as run_seconds.
const defaultSeconds = 32

// quickSeconds is the window under -quick, too short to compare.
const quickSeconds = 3

// minProcs is the number of cores the benchmark needs: mixed_rw runs a
// reader beside its writer and the scaling probe two readers, and the run
// refuses more generators than cores.
const minProcs = 2

// envRecord says where and how a result was measured.
type envRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Quick      bool    `json:"quick"`
	Transport  string  `json:"transport"`
}

// report is the JSON document a full run writes.
type report struct {
	Env       envRecord                  `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	quick    bool
	outDir   string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the data values and the order of operations")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of each measured window in seconds")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
	flag.BoolVar(&o.quick, "quick", false, "3 s windows; the output is stamped quick and -compare refuses it")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result JSON, spans and scratch files")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files (or comma-joined sets) given as arguments instead of running")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if n := runtime.NumCPU(); n < minProcs || runtime.GOMAXPROCS(0) < minProcs {
		return fmt.Errorf("refusing to run %d generator clients on %d cores (GOMAXPROCS %d)", minProcs, n, runtime.GOMAXPROCS(0))
	}
	seconds := o.seconds
	if o.quick {
		seconds = quickSeconds
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	passes := []bool{false, true} // traced?
	switch o.trace {
	case "":
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %q", o.trace)
	}
	specs := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []workloadSpec{w}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	tmpDir, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()

	rep := &report{
		Env: envRecord{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Seed:       o.seed,
			Seconds:    seconds,
			Quick:      o.quick,
			Transport:  "loopback, servers in-process",
		},
		Workloads: map[string]*workloadReport{},
	}
	fmt.Printf("# hetfed benchmark: seed %d, %gs windows, nproc %d, GOMAXPROCS %d, %s, commit %s, %s, closed loop\n",
		o.seed, seconds, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit, rep.Env.Transport)
	window := time.Duration(seconds * float64(time.Second))
	var last *passResult
	failed := false
	for _, w := range specs {
		wr := &workloadReport{}
		rep.Workloads[w.Name] = wr
		for _, traced := range passes {
			var res *passResult
			if traced {
				res, err = runLayers(w, o.seed, window, tmpDir, o.outDir, cal)
				wr.PerLayer = res
			} else {
				res, err = runE2E(w, o.seed, window, tmpDir, cal)
				wr.EndToEnd = res
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printPass(w.Name, res, traced)
			if res.Failed > 0 {
				failed = true
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, first: %s\n", w.Name, res.Failed, res.Attempted, res.Failure)
			}
			last = res
		}
	}
	if len(specs) == 1 && len(passes) == 1 {
		// The driver's form: one workload, one pass, one JSON object as the
		// last line of standard output.
		line, err := json.Marshal(driverLine(last))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	} else {
		path := filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
		if err := writeJSON(path, rep); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", path)
	}
	if failed {
		return errors.New("wrong answers or failed operations, see above")
	}
	return nil
}

// commit is the revision under test; run.sh passes it because the binary is
// built from a module nested in the repository and may run in a checkout
// without git metadata.
func commit() string {
	if c := os.Getenv("HETFED_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// printPass prints one line per metric: workload, metric, value, unit and
// the number of samples behind the value.
func printPass(workload string, res *passResult, traced bool) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		note := ""
		if m.LowN {
			note = fmt.Sprintf(" (fewer than %d samples beyond)", minBeyond)
		}
		if m.Raw != 0 {
			note += " raw=" + strconv.FormatFloat(m.Raw, 'g', -1, 64)
		}
		fmt.Printf("%s %s %s %s n=%d%s\n", workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N, note)
	}
	if !traced {
		fmt.Printf("# %s: times at the reference machine's speed; this machine's speed index was %.4f over the window, %.4f over the set-ups (%s)\n",
			workload, res.WindowIndex, res.SetupIndex, res.Kernels)
		share := 0.0
		if res.Attempted > 0 {
			share = float64(res.Failed) / float64(res.Attempted)
		}
		fmt.Printf("%s failed_share %s ratio n=%d\n", workload, strconv.FormatFloat(share, 'g', -1, 64), res.Attempted)
	}
}

// driverLine renders a pass in the form the benchmark driver reads.
func driverLine(res *passResult) map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(res.Metrics))
	for name, m := range res.Metrics {
		ms[name] = mv{m.Value, m.Unit}
	}
	return map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   ms,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
