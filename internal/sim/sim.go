// Package sim is the experiment harness of the paper's performance study
// (Section 4): it sweeps one workload parameter at a time, generates
// randomized Table 2 samples per swept point, executes the three strategies
// inside the discrete-event fabric, and averages total execution time and
// response time — the series plotted in Figures 9, 10 and 11.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/workload"
)

// CoordinatorSite is the global processing site's identifier in generated
// federations (the generator names component databases DB1, DB2, …).
const CoordinatorSite object.SiteID = "G"

// Config drives one experiment.
type Config struct {
	// Rates are the Table 1 cost parameters.
	Rates fabric.Rates
	// Samples is how many randomized parameter sets are generated and
	// averaged per swept point (the paper uses 500).
	Samples int
	// Seed makes the experiment reproducible.
	Seed int64
	// Ranges are the Table 2 base ranges; each sweep overrides one of
	// them.
	Ranges workload.Ranges
	// Algorithms to run; nil means CA, BL and PL.
	Algorithms []exec.Algorithm
	// Faults, when non-nil, builds a fresh fault plan for every simulated
	// run (plans are stateful — drop-after budgets count served
	// operations), so experiments can measure the strategies under
	// deterministic site failure.
	Faults func() *fabric.FaultPlan
}

// DefaultConfig returns the paper's setting with a tractable sample count.
func DefaultConfig() Config {
	return Config{
		Rates:   fabric.DefaultRates(),
		Samples: 25,
		Seed:    1,
		Ranges:  workload.DefaultRanges(),
	}
}

func (c Config) algorithms() []exec.Algorithm {
	if len(c.Algorithms) > 0 {
		return c.Algorithms
	}
	return exec.Algorithms()
}

// Avg is the averaged outcome of one algorithm at one swept point.
type Avg struct {
	// TotalMillis is the average total execution time (summed busy time of
	// every CPU, disk and the network), in milliseconds.
	TotalMillis float64
	// ResponseMillis is the average response time (virtual makespan).
	ResponseMillis float64
	// NetKB is the average network volume in kilobytes (diagnostic).
	NetKB float64
	// TotalStd and ResponseStd are the sample standard deviations across
	// the point's randomized workloads.
	TotalStd    float64
	ResponseStd float64
	// MaybeRows is the average number of maybe rows per answer and
	// DegradedShare the fraction of runs that returned a degraded (partial)
	// answer — both matter in the fault-injection experiments, where site
	// failure converts certain results into maybe results.
	MaybeRows     float64
	DegradedShare float64
}

// Point is one x-value of an experiment's series.
type Point struct {
	X       float64
	Label   string
	ByAlg   map[string]Avg
	Samples int
}

// Experiment is a reproduced figure: a series of points per algorithm.
type Experiment struct {
	Name   string
	Title  string
	XLabel string
	Points []Point
}

// runPoint generates cfg.Samples workloads from the given ranges and runs
// every algorithm on each inside the simulated fabric.
func runPoint(cfg Config, ranges workload.Ranges, x float64, label string) (Point, error) {
	pt := Point{
		X:       x,
		Label:   label,
		ByAlg:   make(map[string]Avg),
		Samples: cfg.Samples,
	}
	algs := cfg.algorithms()
	needSigs := false
	for _, a := range algs {
		if a == exec.SBL || a == exec.SPL {
			needSigs = true
		}
	}
	samples := make(map[string]*series, len(algs))
	for _, a := range algs {
		samples[a.String()] = &series{}
	}

	for s := 0; s < cfg.Samples; s++ {
		// One deterministic sub-seed per sample, shared across the swept
		// points (common random numbers): sample s draws the same base
		// parameters at every x, so the series differ only through the
		// swept parameter and the curves are comparable point to point.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*1_000_003))
		params := ranges.Draw(rng)
		w, err := workload.Generate(params, rng)
		if err != nil {
			return pt, fmt.Errorf("sim: sample %d: %w", s, err)
		}
		engCfg := exec.Config{
			Global:      w.Global,
			Coordinator: CoordinatorSite,
			Databases:   w.Databases,
			Tables:      w.Tables,
		}
		if needSigs {
			engCfg.Signatures = signature.Build(w.Databases)
		}
		engine, err := exec.New(engCfg)
		if err != nil {
			return pt, fmt.Errorf("sim: sample %d: %w", s, err)
		}
		for _, alg := range algs {
			rt := fabric.NewSim(cfg.Rates, engine.Sites())
			if cfg.Faults != nil {
				rt = rt.WithFaults(cfg.Faults())
			}
			ans, m, err := engine.Run(rt, alg, w.Bound)
			if err != nil {
				return pt, fmt.Errorf("sim: sample %d %v: %w", s, alg, err)
			}
			acc := samples[alg.String()]
			acc.total = append(acc.total, m.TotalBusyMicros/1e3)
			acc.response = append(acc.response, m.ResponseMicros/1e3)
			acc.netKB += float64(m.NetBytes) / 1e3
			acc.maybe += float64(len(ans.Maybe))
			if ans.Degraded {
				acc.degraded++
			}
		}
	}
	for name, acc := range samples {
		pt.ByAlg[name] = acc.summarize(cfg.Samples)
	}
	return pt, nil
}

// series accumulates per-sample measurements for one algorithm.
type series struct {
	total    []float64
	response []float64
	netKB    float64
	maybe    float64
	degraded int
}

func (s *series) summarize(n int) Avg {
	return Avg{
		TotalMillis:    mean(s.total),
		ResponseMillis: mean(s.response),
		NetKB:          s.netKB / float64(n),
		TotalStd:       stddev(s.total),
		ResponseStd:    stddev(s.response),
		MaybeRows:      s.maybe / float64(n),
		DegradedShare:  float64(s.degraded) / float64(n),
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// stddev returns the sample standard deviation.
func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// Figure9 reproduces Figures 9(a) and 9(b): total execution time and
// response time as the average number of objects in each constituent class
// grows.
func Figure9(cfg Config, objectCounts []int) (*Experiment, error) {
	if len(objectCounts) == 0 {
		objectCounts = []int{1000, 2000, 3000, 4000, 5000, 6000}
	}
	ex := &Experiment{
		Name:   "figure9",
		Title:  "Adjusting the average number of objects in each constituent class",
		XLabel: "objects per constituent class",
	}
	for _, n := range objectCounts {
		ranges := cfg.Ranges
		lo := n - n/10
		if lo < 1 {
			lo = 1
		}
		ranges.NObjects = [2]int{lo, n + n/10}
		pt, err := runPoint(cfg, ranges, float64(n), fmt.Sprintf("%d", n))
		if err != nil {
			return nil, err
		}
		ex.Points = append(ex.Points, pt)
	}
	return ex, nil
}

// Figure10 reproduces Figures 10(a) and 10(b): total execution time and
// response time as the number of component databases grows. The isomerism
// ratio R_iso = 1 − 0.9^(N_db−1) rises with it, so the localized strategies
// check ever more assistant objects.
func Figure10(cfg Config, dbCounts []int) (*Experiment, error) {
	if len(dbCounts) == 0 {
		dbCounts = []int{2, 3, 4, 5, 6, 7, 8}
	}
	ex := &Experiment{
		Name:   "figure10",
		Title:  "Adjusting the number of component databases",
		XLabel: "component databases",
	}
	for _, n := range dbCounts {
		ranges := cfg.Ranges
		ranges.NDB = n
		pt, err := runPoint(cfg, ranges, float64(n), fmt.Sprintf("%d", n))
		if err != nil {
			return nil, err
		}
		ex.Points = append(ex.Points, pt)
	}
	return ex, nil
}

// Figure11 reproduces Figures 11(a) and 11(b): total execution time and
// response time as the selectivity of the local predicates grows (higher
// selectivity keeps more objects, so the localized strategies transfer and
// certify more). Following the paper, N_o is reduced to 1000–2000 for this
// experiment.
func Figure11(cfg Config, selectivities []float64) (*Experiment, error) {
	if len(selectivities) == 0 {
		selectivities = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	ex := &Experiment{
		Name:   "figure11",
		Title:  "Adjusting the selectivity of the local predicates (N_o = 1000–2000)",
		XLabel: "predicate selectivity",
	}
	for _, sel := range selectivities {
		ranges := cfg.Ranges
		ranges.NObjects = [2]int{1000, 2000}
		ranges.Selectivity = sel
		pt, err := runPoint(cfg, ranges, sel, fmt.Sprintf("%.2f", sel))
		if err != nil {
			return nil, err
		}
		ex.Points = append(ex.Points, pt)
	}
	return ex, nil
}

// algNames returns the algorithm names present in the experiment, in paper
// order (CA, BL, PL) followed by any extras sorted.
func (ex *Experiment) algNames() []string {
	seen := map[string]bool{}
	for _, pt := range ex.Points {
		for name := range pt.ByAlg {
			seen[name] = true
		}
	}
	var out []string
	for _, name := range []string{"CA", "BL", "PL"} {
		if seen[name] {
			out = append(out, name)
			delete(seen, name)
		}
	}
	rest := make([]string, 0, len(seen))
	for name := range seen {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Table renders the experiment as two aligned text tables — (a) total
// execution time and (b) response time — mirroring the paper's figure
// pairs.
func (ex *Experiment) Table() string {
	var b strings.Builder
	names := ex.algNames()
	fmt.Fprintf(&b, "%s\n", ex.Title)

	render := func(caption string, get func(Avg) float64) {
		fmt.Fprintf(&b, "\n%s (ms)\n", caption)
		fmt.Fprintf(&b, "%-24s", ex.XLabel)
		for _, n := range names {
			fmt.Fprintf(&b, "%12s", n)
		}
		b.WriteByte('\n')
		for _, pt := range ex.Points {
			fmt.Fprintf(&b, "%-24s", pt.Label)
			for _, n := range names {
				fmt.Fprintf(&b, "%12.1f", get(pt.ByAlg[n]))
			}
			b.WriteByte('\n')
		}
	}
	render("(a) total execution time", func(a Avg) float64 { return a.TotalMillis })
	render("(b) response time", func(a Avg) float64 { return a.ResponseMillis })
	return b.String()
}

// CSV renders the experiment in long form: figure,x,algorithm,total_ms,
// response_ms,net_kb.
func (ex *Experiment) CSV() string {
	var b strings.Builder
	b.WriteString("figure,x,algorithm,total_ms,total_std,response_ms,response_std,net_kb\n")
	for _, pt := range ex.Points {
		for _, name := range ex.algNames() {
			a := pt.ByAlg[name]
			fmt.Fprintf(&b, "%s,%g,%s,%.3f,%.3f,%.3f,%.3f,%.3f\n",
				ex.Name, pt.X, name, a.TotalMillis, a.TotalStd,
				a.ResponseMillis, a.ResponseStd, a.NetKB)
		}
	}
	return b.String()
}

// SignatureAblation is experiment E7 (beyond the paper's figures, from its
// Section 5 outlook): equality-predicate workloads executed under the plain
// and the signature-assisted localized strategies, sweeping the extent
// size. Signatures synthesize violating check verdicts locally, cutting
// check traffic.
func SignatureAblation(cfg Config, objectCounts []int) (*Experiment, error) {
	if len(objectCounts) == 0 {
		objectCounts = []int{1000, 2000, 4000, 6000}
	}
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = []exec.Algorithm{exec.BL, exec.SBL, exec.PL, exec.SPL}
	}
	ex := &Experiment{
		Name:   "signatures",
		Title:  "Signature-assisted localized strategies (equality predicates)",
		XLabel: "objects per constituent class",
	}
	for _, n := range objectCounts {
		ranges := cfg.Ranges
		ranges.EqualityPreds = true
		lo := n - n/10
		if lo < 1 {
			lo = 1
		}
		ranges.NObjects = [2]int{lo, n + n/10}
		pt, err := runPoint(cfg, ranges, float64(n), fmt.Sprintf("%d", n))
		if err != nil {
			return nil, err
		}
		ex.Points = append(ex.Points, pt)
	}
	return ex, nil
}

// FaultSweep is experiment E12: graceful degradation under site failure.
// It kills the first k component databases (k swept from deadSites) in
// every simulated run and measures how response time and answer quality
// shift: killed root sites convert certain results into maybe results (and
// synthesized all-unknown rows) rather than failing the queries, so the
// curves show the price of partial answers, not an error cliff.
func FaultSweep(cfg Config, deadSites []int) (*Experiment, error) {
	if len(deadSites) == 0 {
		deadSites = []int{0, 1, 2}
	}
	ex := &Experiment{
		Name:   "faults",
		Title:  "Killing component databases (graceful degradation)",
		XLabel: "dead component databases",
	}
	for _, k := range deadSites {
		c := cfg
		k := k
		if k > 0 {
			c.Faults = func() *fabric.FaultPlan {
				fp := fabric.NewFaultPlan()
				for i := 1; i <= k; i++ {
					fp.Kill(object.SiteID(fmt.Sprintf("DB%d", i)))
				}
				return fp
			}
		}
		pt, err := runPoint(c, c.Ranges, float64(k), fmt.Sprintf("%d", k))
		if err != nil {
			return nil, err
		}
		ex.Points = append(ex.Points, pt)
	}
	return ex, nil
}

// NetworkSweep is experiment E8: sensitivity of the strategy ranking to the
// network transfer rate (Table 1's T_net). Faster networks shrink CA's
// handicap; slower networks widen it.
func NetworkSweep(cfg Config, netRates []float64) (*Experiment, error) {
	if len(netRates) == 0 {
		netRates = []float64{1, 2, 4, 8, 16, 32}
	}
	ex := &Experiment{
		Name:   "network",
		Title:  "Adjusting the network transfer time (µs/byte)",
		XLabel: "network µs/byte",
	}
	for _, r := range netRates {
		c := cfg
		c.Rates.NetPerByte = r
		pt, err := runPoint(c, c.Ranges, r, fmt.Sprintf("%g", r))
		if err != nil {
			return nil, err
		}
		ex.Points = append(ex.Points, pt)
	}
	return ex, nil
}

// PlannerReport is experiment E9: how well the cost-based planner picks the
// actual fastest strategy across random workloads.
type PlannerReport struct {
	Samples int
	// Correct counts samples where the planner chose the strategy with the
	// lowest simulated response time.
	Correct int
	// AvgRegret and MaxRegret measure the response-time ratio between the
	// chosen and the best strategy minus one (0 = always optimal).
	AvgRegret float64
	MaxRegret float64
	// ByChoice counts how often each strategy was chosen.
	ByChoice map[string]int
	// BestByAlg counts how often each strategy actually won.
	BestByAlg map[string]int
}

// String renders the report.
func (r PlannerReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cost-based strategy selection (planner) over %d workloads\n", r.Samples)
	fmt.Fprintf(&b, "  picked the fastest strategy: %d/%d (%.0f%%)\n",
		r.Correct, r.Samples, 100*float64(r.Correct)/float64(r.Samples))
	fmt.Fprintf(&b, "  response-time regret: avg %.1f%%, worst %.1f%%\n",
		100*r.AvgRegret, 100*r.MaxRegret)
	fmt.Fprintf(&b, "  chosen:  ")
	for _, name := range []string{"CA", "BL", "PL"} {
		fmt.Fprintf(&b, "%s=%d  ", name, r.ByChoice[name])
	}
	fmt.Fprintf(&b, "\n  fastest: ")
	for _, name := range []string{"CA", "BL", "PL"} {
		fmt.Fprintf(&b, "%s=%d  ", name, r.BestByAlg[name])
	}
	b.WriteByte('\n')
	return b.String()
}

// PlannerAccuracy generates cfg.Samples random workloads, asks the planner
// to choose a strategy from catalog statistics alone, then measures every
// strategy in the simulator and scores the choice.
func PlannerAccuracy(cfg Config) (PlannerReport, error) {
	report := PlannerReport{
		Samples:   cfg.Samples,
		ByChoice:  make(map[string]int),
		BestByAlg: make(map[string]int),
	}
	for s := 0; s < cfg.Samples; s++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*1_000_003))
		params := cfg.Ranges.Draw(rng)
		w, err := workload.Generate(params, rng)
		if err != nil {
			return report, fmt.Errorf("sim: planner sample %d: %w", s, err)
		}
		engine, err := exec.New(exec.Config{
			Global:      w.Global,
			Coordinator: CoordinatorSite,
			Databases:   w.Databases,
			Tables:      w.Tables,
		})
		if err != nil {
			return report, err
		}

		cat := planner.BuildCatalog(w.Global, w.Databases, w.Tables)
		chosen := planner.Choose(cat, w.Bound, cfg.Rates)
		report.ByChoice[chosen.String()]++

		actual := make(map[exec.Algorithm]float64, 3)
		best := exec.Algorithm(0)
		for _, alg := range exec.Algorithms() {
			rt := fabric.NewSim(cfg.Rates, engine.Sites())
			_, m, err := engine.Run(rt, alg, w.Bound)
			if err != nil {
				return report, err
			}
			actual[alg] = m.ResponseMicros
			if best == 0 || m.ResponseMicros < actual[best] {
				best = alg
			}
		}
		report.BestByAlg[best.String()]++
		if chosen == best {
			report.Correct++
		}
		regret := actual[chosen]/actual[best] - 1
		report.AvgRegret += regret / float64(cfg.Samples)
		if regret > report.MaxRegret {
			report.MaxRegret = regret
		}
	}
	return report, nil
}

// IndexAblation is experiment E10: the basic localized strategy with and
// without secondary indexes on the root class's predicate attributes,
// swept over the local-predicate selectivity (N_o = 1000–2000, as in
// Figure 11). Indexes let BL read only candidate objects instead of
// scanning the extent, so the win grows as selectivity drops; CA is shown
// for reference (it ships everything regardless).
func IndexAblation(cfg Config, selectivities []float64) (*Experiment, error) {
	if len(selectivities) == 0 {
		selectivities = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	ex := &Experiment{
		Name:   "indexes",
		Title:  "Secondary indexes for local evaluation (BL, N_o = 1000–2000)",
		XLabel: "predicate selectivity",
	}
	// The extent probes an index it has, so BL+idx is BL run again after
	// the indexes are built.
	type variant struct {
		label string
		alg   exec.Algorithm
		index bool
	}
	variants := []variant{
		{"CA", exec.CA, false},
		{"BL", exec.BL, false},
		{"BL+idx", exec.BL, true},
	}
	for _, sel := range selectivities {
		ranges := cfg.Ranges
		ranges.NObjects = [2]int{1000, 2000}
		ranges.Selectivity = sel
		pt := Point{
			X:       sel,
			Label:   fmt.Sprintf("%.2f", sel),
			ByAlg:   make(map[string]Avg),
			Samples: cfg.Samples,
		}
		sums := make(map[string]*series, len(variants))
		for _, v := range variants {
			sums[v.label] = &series{}
		}
		for s := 0; s < cfg.Samples; s++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*1_000_003))
			w, err := workload.Generate(ranges.Draw(rng), rng)
			if err != nil {
				return nil, fmt.Errorf("sim: index sample %d: %w", s, err)
			}
			engine, err := exec.New(exec.Config{
				Global:      w.Global,
				Coordinator: CoordinatorSite,
				Databases:   w.Databases,
				Tables:      w.Tables,
			})
			if err != nil {
				return nil, err
			}
			for _, v := range variants {
				if v.index {
					if err := indexPredicateAttrs(w); err != nil {
						return nil, err
					}
				}
				rt := fabric.NewSim(cfg.Rates, engine.Sites())
				_, m, err := engine.Run(rt, v.alg, w.Bound)
				if err != nil {
					return nil, err
				}
				acc := sums[v.label]
				acc.total = append(acc.total, m.TotalBusyMicros/1e3)
				acc.response = append(acc.response, m.ResponseMicros/1e3)
				acc.netKB += float64(m.NetBytes) / 1e3
			}
		}
		for label, acc := range sums {
			pt.ByAlg[label] = acc.summarize(cfg.Samples)
		}
		ex.Points = append(ex.Points, pt)
	}
	return ex, nil
}

// indexPredicateAttrs builds a secondary index on every single-valued
// primitive predicate attribute of the workload's root class, at every site.
func indexPredicateAttrs(w *workload.Workload) error {
	for _, db := range w.Databases {
		for _, a := range db.Schema().Class("C1").Attrs {
			if !a.IsComplex() && !a.MultiValued && a.Name[0] == 'p' {
				if _, err := db.CreateIndex("C1", a.Name); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
