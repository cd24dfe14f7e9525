package bench

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/workload"
)

// FigureSpec shapes the paper's performance study (Section 4: Table 1
// rates, Table 2 draws, Figures 9–11) and the sweeps grown around it. Each
// named sweep varies one parameter; per plotted point it draws Samples
// randomized Table 2 federations (the paper: 500) with extents at Scale
// (1 = the paper's 5000–6000 objects per constituent class), runs the
// sweep's strategies on each in the discrete-event fabric and averages the
// paper's two y-axes. Every number derives from Seed.
type FigureSpec struct {
	Samples int      `json:"samples"`
	Scale   float64  `json:"scale"`
	Seed    int64    `json:"seed"`
	Sweeps  []string `json:"sweeps"`
}

// FigureCell is one strategy at one swept point, averaged over the point's
// draws: total execution time (summed busy time of every CPU, disk and the
// network) and response time (virtual makespan) with their sample standard
// deviations, network volume, and the answer quality that moves under
// faults — maybe rows per answer and the share of degraded answers.
type FigureCell struct {
	Figure         string  `json:"figure"`
	X              float64 `json:"x"`
	Strategy       string  `json:"strategy"`
	TotalMillis    float64 `json:"total_ms"`
	TotalStd       float64 `json:"total_std"`
	ResponseMillis float64 `json:"response_ms"`
	ResponseStd    float64 `json:"response_std"`
	NetKB          float64 `json:"net_kb"`
	MaybeRows      float64 `json:"maybe_rows"`
	DegradedShare  float64 `json:"degraded_share"`
	// Planner scores the "planner" row, whose averages are those of the
	// strategy the cost-based planner chose for each draw.
	Planner *PlannerScore `json:"planner,omitempty"`
}

// PlannerScore is how well a never-fed planner.Selector, from catalog
// statistics alone, picked the strategy the simulator then measured fastest:
// of Draws choices the Correct ones, the chosen strategy's response time
// over the fastest's minus one (0 = always optimal), and how often each was
// picked and won.
type PlannerScore struct {
	Draws     int            `json:"draws"`
	Correct   int            `json:"correct"`
	AvgRegret float64        `json:"avg_regret"`
	MaxRegret float64        `json:"max_regret"`
	Chosen    map[string]int `json:"chosen"`
	Fastest   map[string]int `json:"fastest"`
}

// point is one swept point's cells by strategy label.
type point map[string]FigureCell

func (p point) total(s string) float64 { return p[s].TotalMillis }

// localizedFaster is Figures 9(b)/10(b): parallel local processing keeps
// both localized response times below CA's.
func (p point) localizedFaster() bool {
	return p["BL"].ResponseMillis < p["CA"].ResponseMillis && p["PL"].ResponseMillis < p["CA"].ResponseMillis
}

// sweep is one figure: a parameter, its values and the strategies compared
// at each.
type sweep struct {
	name, title, xLabel string
	xs                  []float64
	// strategies run in order on each draw. Besides the engine's names,
	// "BL+idx" is BL once the draw's root-class predicate attributes are
	// indexed (so it runs last), and "planner" is whichever of the ones
	// before it a never-fed planner.Selector picks.
	strategies []string
	// extentX marks x-values that are extent sizes: they scale with the
	// extents, and the report carries the scaled value.
	extentX bool
	// fixedExtents marks a sweep whose apply pins N_o at every scale, as
	// Figure 11's reduced 1000–2000 always was; the recorded numbers are at it.
	fixedExtents bool
	// apply sets the point's Table 2 ranges and Table 1 rates and returns
	// its fault spec (fabric.ParseFaults' grammar).
	apply func(x float64, r *workload.Ranges, rates *fabric.Rates) string
}

var paperStrategies = []string{"CA", "BL", "PL"}

// extentAround centres N_o on x (±10 %), at paper scale.
func extentAround(x float64, r *workload.Ranges, _ *fabric.Rates) string {
	n := int(x)
	r.NObjects = [2]int{n - n/10, n + n/10}
	return "none"
}

// selectivityAt is Figure 11's setting: N_o reduced to 1000–2000.
func selectivityAt(x float64, r *workload.Ranges, _ *fabric.Rates) string {
	r.NObjects, r.Selectivity = [2]int{1000, 2000}, x
	return "none"
}

func databases(x float64, r *workload.Ranges, _ *fabric.Rates) string {
	r.NDB = int(x)
	return "none"
}

// sweeps is the registry, in the order EXPERIMENTS.md reports it.
var sweeps = []sweep{
	{name: "figure9", title: "Adjusting the average number of objects in each constituent class",
		xLabel: "objects per constituent class", xs: []float64{1000, 2000, 3000, 4000, 5000, 6000},
		strategies: paperStrategies, extentX: true, apply: extentAround},
	{name: "figure10", title: "Adjusting the number of component databases",
		xLabel: "component databases", xs: []float64{2, 3, 4, 5, 6, 7, 8},
		strategies: paperStrategies, apply: databases},
	{name: "figure11", title: "Adjusting the selectivity of the local predicates (N_o = 1000–2000)",
		xLabel: "predicate selectivity", xs: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		strategies: paperStrategies, fixedExtents: true, apply: selectivityAt},
	// E7, the paper's Section 5 outlook, on equality predicates: a signature
	// miss proves an assistant violates without asking it.
	{name: "signatures", title: "Signature-assisted localized strategies (equality predicates)",
		xLabel: "objects per constituent class", xs: []float64{1000, 2000, 4000, 6000},
		strategies: []string{"BL", "SBL", "PL", "SPL"}, extentX: true,
		apply: func(x float64, r *workload.Ranges, rates *fabric.Rates) string {
			r.EqualityPreds = true
			return extentAround(x, r, rates)
		}},
	{name: "network", title: "Adjusting the network transfer time (µs/byte)",
		xLabel: "network µs/byte", xs: []float64{1, 2, 4, 8, 16, 32}, strategies: paperStrategies,
		apply: func(x float64, _ *workload.Ranges, rates *fabric.Rates) string {
			rates.NetPerByte = x
			return "none"
		}},
	{name: "indexes", title: "Secondary indexes for local evaluation (BL, N_o = 1000–2000)",
		xLabel: "predicate selectivity", xs: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		strategies: []string{"CA", "BL", "BL+idx"}, fixedExtents: true, apply: selectivityAt},
	{name: "faults", title: "Killing component databases (graceful degradation)",
		xLabel: "dead component databases", xs: []float64{0, 1, 2}, strategies: paperStrategies,
		apply: func(x float64, _ *workload.Ranges, _ *fabric.Rates) string {
			return [...]string{"none", "kill:DB1", "kill:DB1,kill:DB2"}[int(x)]
		}},
	// E9 at the default Table 2 setting (N_db = 3).
	{name: "planner", title: "Cost-based strategy selection (default Table 2)",
		xLabel: "component databases", xs: []float64{3},
		strategies: []string{"CA", "BL", "PL", "planner"}, apply: databases},
}

// shapes is the gate: what the paper (Figures 9–11) and EXPERIMENTS.md
// (E9–E12) claim of a sweep — each claim, and whether it holds at the swept
// point pt given the first point lo.
func shapes(name string, lo, pt point) map[string]bool {
	claims := map[string]bool{}
	switch name {
	case "figure9":
		claims["Fig. 9(a): total BL < PL < CA"] = pt.total("BL") < pt.total("PL") && pt.total("PL") < pt.total("CA")
		claims["Fig. 9(b): localized response below CA's"] = pt.localizedFaster()
		claims["Fig. 9: every total grows with N_o"] = lo.total("CA") < pt.total("CA") &&
			lo.total("BL") < pt.total("BL") && lo.total("PL") < pt.total("PL")
	case "figure10": // R_iso rises with N_db, so the localized strategies check ever more assistants
		claims["Fig. 10(a): PL's total grows faster than CA's"] = pt.total("PL")/lo.total("PL") > pt.total("CA")/lo.total("CA")
		claims["Fig. 10(b): localized response below CA's"] = pt.localizedFaster()
	case "figure11":
		bl, pl := pt.total("BL")-lo.total("BL"), pt.total("PL")-lo.total("PL")
		claims["Fig. 11: CA flat in selectivity (±2 %)"] = math.Abs(pt.total("CA")/lo.total("CA")-1) < 0.02
		claims["Fig. 11: BL and PL grow with selectivity"] = bl > 0 && pl > 0
		claims["Fig. 11: BL's slope exceeds PL's"] = bl > pl
	case "indexes":
		claims["E10: the index saves at selective predicates"] = lo.total("BL+idx") < lo.total("BL")
		claims["E10: the saving shrinks as selectivity rises"] = lo.total("BL")/lo.total("BL+idx") > pt.total("BL")/pt.total("BL+idx")
	case "faults": // a dead database turns certain rows into maybe rows instead of failing the query
		for _, s := range paperStrategies {
			claims["E12: healthy "+s+" runs are never degraded"] = lo[s].DegradedShare == 0
			claims["E12: every "+s+" run degrades with a database dead"] = pt[s].DegradedShare == 1
			claims["E12: "+s+"'s lost certainty surfaces as maybe rows"] = pt[s].MaybeRows > lo[s].MaybeRows
		}
	case "planner":
		score := pt["planner"].Planner
		claims["E9: the planner picks the fastest strategy at least half the time"] = 2*score.Correct >= score.Draws
		claims["E9: worst regret ≤ 1.5"] = score.MaxRegret <= 1.5
	}
	return claims
}

// lookupSweep resolves a sweep name; the error names the registry.
func lookupSweep(name string) (sweep, error) {
	var names []string
	for _, sw := range sweeps {
		if sw.name == name {
			return sw, nil
		}
		names = append(names, sw.name)
	}
	return sweep{}, fmt.Errorf("bench: unknown sweep %q (registered: %s)", name, strings.Join(names, ", "))
}

// RunFigures measures every point of the spec's sweeps and gates each sweep
// on its shape, at every point after the first (at the first, when it is the
// only one); a failed gate returns the measured report alongside the error.
// progress, when non-nil, receives one line per point.
func RunFigures(ctx context.Context, spec FigureSpec, progress func(string)) (*Report, error) {
	report := newReport("figures", spec.Seed, spec)
	var cells []FigureCell
	var broken []string
	for _, name := range spec.Sweeps {
		sw, err := lookupSweep(name)
		if err != nil {
			return nil, err
		}
		var lo point
		for i, x := range sw.xs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pt, err := runPoint(spec, sw, x)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at %g: %w", name, x, err)
			}
			if i == 0 {
				lo = pt
			}
			for what, holds := range shapes(name, lo, pt) {
				if !holds && (i > 0 || len(sw.xs) == 1) {
					broken = append(broken, fmt.Sprintf("%s at %g: %s", name, x, what))
				}
			}
			for _, s := range sw.strategies {
				cells = append(cells, pt[s])
			}
			if progress != nil {
				progress(fmt.Sprintf("%-10s %s = %g", name, sw.xLabel, pt[sw.strategies[0]].X))
			}
		}
	}
	report.Cells = cells
	if len(broken) > 0 {
		slices.Sort(broken)
		return report, fmt.Errorf("bench: figures: %d claim(s) not reproduced:\n  %s", len(broken), strings.Join(broken, "\n  "))
	}
	return report, nil
}

// runPoint draws spec.Samples federations at one swept point and runs the
// sweep's strategies on each, a fresh simulator and fault plan per run.
func runPoint(spec FigureSpec, sw sweep, x float64) (point, error) {
	ranges, rates, scale := workload.DefaultRanges(), fabric.DefaultRates(), spec.Scale
	faults, err := fabric.ParseFaults(sw.apply(x, &ranges, &rates), "")
	if err != nil {
		return nil, err
	}
	if sw.fixedExtents {
		scale = 1
	}
	if sw.extentX {
		x = float64(scaled(int(x), scale))
	}
	// runs[i] holds strategy i's draws, a cell each (degraded share 0 or 1).
	runs := make([][]FigureCell, len(sw.strategies))
	score := &PlannerScore{Draws: spec.Samples, Chosen: map[string]int{}, Fastest: map[string]int{}}
	for s := 0; s < spec.Samples; s++ {
		// Common random numbers: draw s has one sub-seed at every x of every
		// sweep, so curves differ only through the swept parameter.
		w, err := drawTable2(ranges, scale, rand.New(rand.NewSource(spec.Seed+int64(s)*1_000_003)))
		if err != nil {
			return nil, fmt.Errorf("draw %d: %w", s, err)
		}
		cfg := exec.Config{Global: w.Global, Coordinator: coordinatorID, Databases: w.Databases, Tables: w.Tables}
		if slices.Contains(sw.strategies, "SBL") {
			cfg.Signatures = signature.Build(w.Databases) // a tenth of the run's wall clock if built for every sweep
		}
		engine, err := exec.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("draw %d: %w", s, err)
		}
		ran := make(point, len(sw.strategies))
		for i, label := range sw.strategies {
			if label == "planner" {
				// A selector that has observed nothing is the Table 1
				// planner; no sweep with a planner row moves the rates.
				cat := planner.BuildCatalog(w.Global, w.Databases, w.Tables)
				chosen := planner.NewSelector(cat, coordinatorID, nil).Select(w.Bound).String()
				score.add(chosen, ran)
				ran[label] = ran[chosen]
			} else {
				name, indexed := strings.CutSuffix(label, "+idx")
				if indexed {
					if err := indexPredicateAttrs(w); err != nil {
						return nil, err
					}
				}
				alg, err := exec.ParseAlgorithm(name)
				if err != nil {
					return nil, err
				}
				rt := fabric.NewSim(rates, engine.Sites()).WithFaults(faults())
				ans, m, err := engine.Run(rt, alg, w.Bound)
				if err != nil {
					return nil, fmt.Errorf("draw %d %s: %w", s, label, err)
				}
				c := FigureCell{TotalMillis: m.TotalBusyMicros / 1e3, ResponseMillis: m.ResponseMicros / 1e3,
					NetKB: float64(m.NetBytes) / 1e3, MaybeRows: float64(len(ans.Maybe))}
				if ans.Degraded {
					c.DegradedShare = 1
				}
				ran[label] = c
			}
			runs[i] = append(runs[i], ran[label])
		}
	}
	pt := make(point, len(sw.strategies))
	for i, label := range sw.strategies {
		c := average(runs[i])
		c.Figure, c.X, c.Strategy = sw.name, x, label
		if label == "planner" {
			c.Planner = score
		}
		pt[label] = c
	}
	return pt, nil
}

// add scores one draw's choice against the strategies measured before it:
// the fastest is the first, in the paper's order, with the lowest response.
func (p *PlannerScore) add(chosen string, ran point) {
	best := slices.MinFunc(paperStrategies, func(a, b string) int {
		return cmp.Compare(ran[a].ResponseMillis, ran[b].ResponseMillis)
	})
	p.Chosen[chosen]++
	p.Fastest[best]++
	if chosen == best {
		p.Correct++
	}
	regret := ran[chosen].ResponseMillis/ran[best].ResponseMillis - 1
	p.AvgRegret += regret / float64(p.Draws)
	p.MaxRegret = max(p.MaxRegret, regret)
}

// indexPredicateAttrs indexes every single-valued primitive predicate
// attribute of the draw's root class, at every site; an extent probes an
// index it has.
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

// average reduces one strategy's draws at a point to the point's cell.
func average(draws []FigureCell) (c FigureCell) {
	total, response := make([]float64, len(draws)), make([]float64, len(draws))
	for i, d := range draws {
		total[i], response[i] = d.TotalMillis, d.ResponseMillis
		c.NetKB, c.MaybeRows, c.DegradedShare = c.NetKB+d.NetKB, c.MaybeRows+d.MaybeRows, c.DegradedShare+d.DegradedShare
	}
	n := float64(len(draws))
	c.NetKB, c.MaybeRows, c.DegradedShare = c.NetKB/n, c.MaybeRows/n, c.DegradedShare/n
	c.TotalMillis, c.TotalStd = meanStd(total)
	c.ResponseMillis, c.ResponseStd = meanStd(response)
	return c
}

// FigureTables renders a figures report's cells as text: per sweep, (a)
// total execution time and (b) response time with a column per strategy —
// the paper's figure pairs — and the planner's score where there is one.
func FigureTables(cells []FigureCell) string {
	var b strings.Builder
	for len(cells) > 0 {
		sw, _ := lookupSweep(cells[0].Figure)
		n := 0
		for n < len(cells) && cells[n].Figure == sw.name {
			n++
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s\n", sw.title)
		table := func(caption string, get func(FigureCell) float64) {
			fmt.Fprintf(&b, "\n%s (ms)\n%-24s", caption, sw.xLabel)
			for _, s := range sw.strategies {
				fmt.Fprintf(&b, "%12s", s)
			}
			for i, c := range cells[:n] {
				if i%len(sw.strategies) == 0 {
					fmt.Fprintf(&b, "\n%-24g", c.X)
				}
				fmt.Fprintf(&b, "%12.1f", get(c))
			}
			b.WriteByte('\n')
		}
		table("(a) total execution time", func(c FigureCell) float64 { return c.TotalMillis })
		table("(b) response time", func(c FigureCell) float64 { return c.ResponseMillis })
		if p := cells[n-1].Planner; p != nil {
			fmt.Fprintf(&b, "\npicked the fastest strategy: %d/%d (%.0f%%)\nresponse-time regret: avg %.1f%%, worst %.1f%%\n",
				p.Correct, p.Draws, 100*float64(p.Correct)/float64(p.Draws), 100*p.AvgRegret, 100*p.MaxRegret)
			fmt.Fprintf(&b, "chosen %v, fastest %v\n", p.Chosen, p.Fastest)
		}
		cells = cells[n:]
	}
	return b.String()
}
