// Command hetql runs global queries against the paper's example federation
// (the school databases DB1, DB2, DB3 of Figures 1–5) under any of the
// execution strategies, printing certain and maybe results, cost metrics,
// and optionally the executed step flow (the paper's Figure 8).
//
// Usage:
//
//	hetql                              # run the paper's Q1 under CA, BL, PL
//	hetql -alg BL -trace               # one strategy, with its step flow
//	hetql -query 'select name from Student where age > 25'
//	hetql -show                        # print the federation's contents
//	hetql -export > my.json            # dump the federation as JSON
//	hetql -fed my.json -explain        # query a JSON-defined federation with the planner's choice
//	hetql -fault kill:DB3              # degrade: kill DB3, partial answer
//	hetql -fault delay:DB2:5ms         # wedge DB2 by 5ms per operation
//	hetql -explain                     # EXPLAIN ANALYZE: predicted vs measured
//	hetql -alg adaptive -repeat 5      # calibrating selector, fed by each run's profile
//	hetql -deadline 50ms               # budgeted: over-deadline → partial answer
//	hetql -version                     # print the build version
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/store/wal"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hetql:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hetql", flag.ContinueOnError)
	var (
		queryText   = fs.String("query", school.Q1, "global query (SQL/X-like)")
		algName     = fs.String("alg", "all", "strategy: CA, BL, PL, SBL, SPL, adaptive (calibrating selector; its first choice is the Table 1 planner's), or all")
		repeat      = fs.Int("repeat", 1, "run the query this many times per strategy (lets -alg adaptive calibrate)")
		showTrace   = fs.Bool("trace", false, "print the executed step flow (Figure 8) and the span tree")
		showMetrics = fs.Bool("metrics", false, "print each strategy's metrics (snapshot delta)")
		show        = fs.Bool("show", false, "print the federation's schemas and objects, then exit")
		export      = fs.Bool("export", false, "dump the federation as a JSON document, then exit")
		stats       = fs.Bool("stats", false, "print the planner's catalog statistics, then exit")
		fedPath     = fs.String("fed", "", "load the federation from this JSON document instead of the built-in example")
		faultSpec   = fs.String("fault", "", "fault injection, comma-separated: kill:SITE, drop:SITE:N (dark after N operations), delay:SITE:DURATION, cut:SITE (the global site's links to SITE); the query degrades")
		explain     = fs.Bool("explain", false, "EXPLAIN ANALYZE: print the planner's predicted per-site/per-phase cost against the measured profile (runs the planner's choice unless -alg names a strategy)")
		deadline    = fs.Duration("deadline", 0, "end-to-end wall-clock budget per query; an over-budget query returns its sound partial answer (0 = none)")
		dataDir     = fs.String("data-dir", "", "query the durable state under this root (WAL+snapshot directories as written by hetserve) instead of the in-memory fixture; missing directories are seeded from the fixture")
		obsBase     = fs.String("obs", "", "coordinator observability base URL; with -trace the footer prints a full /debug/trace/{id}.json link (e.g. http://127.0.0.1:8100)")
		showVersion = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println("hetql", version.String())
		return nil
	}

	faults, err := fabric.ParseFaults(*faultSpec, "G")
	if err != nil {
		return err
	}

	// The federation: the paper's school example by default, or a
	// user-supplied JSON document.
	var (
		schemas   map[object.SiteID]*schema.Schema
		global    *schema.Global
		databases map[object.SiteID]*store.Database
		tables    *gmap.Tables
	)
	if *fedPath != "" {
		fed, err := fedfile.Load(*fedPath)
		if err != nil {
			return err
		}
		schemas, global, databases, tables = fed.Schemas, fed.Global, fed.Databases, fed.Tables
	} else {
		fx := school.New()
		schemas, global, databases, tables = fx.Schemas, fx.Global, fx.Databases, fx.Mapping
	}

	// -data-dir: query the durable state hetserve wrote, not the in-memory
	// fixture. Each site's database is recovered from <data-dir>/<site> and
	// the global mapping from <data-dir>/G; fixture entries the recovered
	// state doesn't hold yet are merged in, so the flag also works against a
	// fresh or partially-populated root. -show/-stats/-export then report
	// the recovered federation.
	if *dataDir != "" {
		for site, db := range databases {
			eng, rdb, _, err := wal.Open(db.Schema(), wal.Options{
				Dir:  filepath.Join(*dataDir, string(site)),
				Site: string(site),
			})
			if err != nil {
				return err
			}
			defer eng.Close()
			if err := eng.Import(db, tables); err != nil {
				return err
			}
			databases[site] = rdb
		}
		gx, rtables, err := wal.OpenLog(wal.Options{Dir: filepath.Join(*dataDir, "G"), Site: "G"})
		if err != nil {
			return err
		}
		defer gx.Close()
		if err := gx.Import(nil, tables); err != nil {
			return err
		}
		tables = rtables
	}

	if *export {
		data, err := fedfile.Export(schemas, global, databases)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if *show {
		printFederation(global, databases)
		return nil
	}
	if *stats {
		printCatalog(global, databases, tables)
		return nil
	}

	q, err := query.Parse(*queryText)
	if err != nil {
		return err
	}
	b, err := query.Bind(q, global)
	if err != nil {
		return err
	}

	// -explain without an explicit single strategy runs the planner's choice.
	planned := *explain && strings.EqualFold(*algName, "all")
	adaptive := strings.EqualFold(*algName, exec.Adaptive.String())

	// One catalog build serves the EXPLAIN baseline and the adaptive selector
	// alike. The baseline is a selector that never observes a query, so it
	// prices every site at Table 1's rates.
	var table1, selector *planner.Selector
	if *explain || adaptive {
		cat := planner.BuildCatalog(global, databases, tables)
		table1 = planner.NewSelector(cat, "G", nil)
		if adaptive {
			selector = planner.NewSelector(cat, "G", nil)
		}
	}

	reg := metrics.New()
	rec := obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: reg})
	cfg := exec.Config{
		Global:      global,
		Coordinator: "G",
		Databases:   databases,
		Tables:      tables,
		Tracer:      &trace.Tracer{},
		Metrics:     reg,
		Signatures:  signature.Build(databases),
		Recorder:    rec,
	}
	if selector != nil {
		cfg.Selector = selector
	}
	engine, err := exec.New(cfg)
	if err != nil {
		return err
	}

	// Ctrl-C cancels the running query instead of killing the process: the
	// strategy unwinds at its next checkpoint and the partial answer prints
	// with its outcome. A second interrupt kills the process as usual.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var algs []exec.Algorithm
	switch {
	case planned:
		chosen := table1.Select(b)
		fmt.Printf("planner chose %v:\n", chosen)
		for _, est := range table1.LastDecision().Estimates {
			fmt.Printf("  %-3v predicted response %8.2f ms, total %8.2f ms\n",
				est.Alg, est.ResponseMicros/1e3, est.TotalMicros/1e3)
		}
		algs = []exec.Algorithm{chosen}
	case adaptive:
		algs = []exec.Algorithm{exec.Adaptive}
	default:
		algs, err = pickAlgorithms(*algName)
		if err != nil {
			return err
		}
	}

	fmt.Printf("query: %s\n", q)
	prev := reg.Snapshot()
	for _, alg := range algs {
		for run := 0; run < *repeat; run++ {
			// A fresh plan per run: drop-after budgets are stateful.
			rt := fabric.NewSim(fabric.DefaultRates(), engine.Sites()).WithFaults(faults())
			// -deadline budgets each run on its own.
			rctx, cancel := ctx, context.CancelFunc(func() {})
			if *deadline > 0 {
				rctx, cancel = context.WithTimeout(ctx, *deadline)
			}
			ans, m, err := engine.RunContext(rctx, rt, alg, b)
			cancel()
			if err != nil {
				return fmt.Errorf("%v: %w", alg, err)
			}
			executed := alg
			header := alg.String()
			if alg == exec.Adaptive {
				if d := selector.LastDecision(); d != nil {
					executed = d.Alg
					header = fmt.Sprintf("adaptive → %v", d.Alg)
				}
			}
			if *repeat > 1 {
				header = fmt.Sprintf("%s (run %d/%d)", header, run+1, *repeat)
			}
			fmt.Printf("\n=== %s ===\n%s", header, ans.Text(b))
			fmt.Printf("simulated: response %.2f ms, total execution %.2f ms "+
				"(disk %d B, cpu %d ops, net %d B)\n",
				m.ResponseMicros/1e3, m.TotalBusyMicros/1e3, m.DiskBytes, m.CPUOps, m.NetBytes)
			if *explain {
				var calibrated []planner.Estimate
				if alg == exec.Adaptive {
					if d := selector.LastDecision(); d != nil {
						calibrated = d.Estimates
					}
				}
				printExplain(table1.Estimate(b), calibrated, executed, rec.Last())
			}
			if p := rec.Last(); *showTrace && p != nil {
				// Both views read the run's recorded profile. The footer makes
				// a slow query one click from its Perfetto trace: the profile's
				// ID is the trace ID every obs surface serves under
				// /debug/trace/{id}.json.
				fmt.Printf("\nstep flow:\n%s", p.Render())
				fmt.Printf("\nspan tree:\n%s", p.RenderTree())
				fmt.Printf("\ntrace: %s  →  %s\n", p.ID, traceURL(*obsBase, p.ID))
			}
			if *showMetrics {
				cur := reg.Snapshot()
				fmt.Println("\nmetrics:")
				fmt.Print(cur.Delta(prev).Text())
				prev = cur
			}
		}
	}
	return nil
}

// traceURL builds the link to a query's full trace on the coordinator's
// observability surface. Without a base it stays a path, so the footer is
// useful even when no coordinator is running.
func traceURL(base, id string) string {
	path := "/debug/trace/" + id + ".json"
	if base == "" {
		return path
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimSuffix(base, "/") + path
}

// estimateFor finds the planner estimate matching a strategy; the
// signature-assisted variants read their base strategy's estimate (the
// planner models CA, BL and PL).
func estimateFor(ests []planner.Estimate, alg exec.Algorithm) *planner.Estimate {
	want := alg
	switch alg {
	case exec.SBL:
		want = exec.BL
	case exec.SPL:
		want = exec.PL
	}
	for i := range ests {
		if ests[i].Alg == want {
			return &ests[i]
		}
	}
	return nil
}

// printExplain lays the planner's predicted per-site/per-phase cost against
// the measured profile of the run that just finished — EXPLAIN ANALYZE.
// With a calibrated estimate set (the adaptive selector's decision) the
// table grows a third column: Table 1 prediction, calibrated prediction,
// measured.
func printExplain(table1, calibrated []planner.Estimate, alg exec.Algorithm, p *trace.Profile) {
	fmt.Printf("\nEXPLAIN ANALYZE (%v):\n", alg)
	var (
		labels []string
		bds    []*cost.Breakdown
	)
	predictedLabel := "predicted"
	if calibrated != nil {
		predictedLabel = "table1"
	}
	var predicted *cost.Breakdown
	if est := estimateFor(table1, alg); est != nil {
		fmt.Printf("%s: response %.3f ms, total %.3f ms\n",
			predictedLabel, est.ResponseMicros/1e3, est.TotalMicros/1e3)
		predicted = est.Details
	}
	labels, bds = append(labels, predictedLabel), append(bds, predicted)
	if est := estimateFor(calibrated, alg); est != nil {
		fmt.Printf("calibrated: response %.3f ms, total %.3f ms\n",
			est.ResponseMicros/1e3, est.TotalMicros/1e3)
		labels, bds = append(labels, "calibrated"), append(bds, est.Details)
	}
	var measured *cost.Breakdown
	if p != nil {
		fmt.Printf("measured:  response %.3f ms, status %s, %d certain, %d maybe\n",
			p.WallMicros/1e3, p.Status, p.Certain, p.Maybe)
		measured = p.Phases
	}
	labels, bds = append(labels, "measured"), append(bds, measured)
	fmt.Print(cost.RenderColumns(labels, bds))
	if p != nil && len(p.Counters) > 0 {
		names := make([]string, 0, len(p.Counters))
		for name := range p.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("counters:")
		for _, name := range names {
			fmt.Printf("  %-20s %d\n", name, p.Counters[name])
		}
	}
}

func pickAlgorithms(name string) ([]exec.Algorithm, error) {
	if strings.EqualFold(name, "all") {
		return exec.Algorithms(), nil
	}
	alg, err := exec.ParseAlgorithm(name)
	if err != nil {
		return nil, err
	}
	return []exec.Algorithm{alg}, nil
}

func printCatalog(global *schema.Global, databases map[object.SiteID]*store.Database, tables *gmap.Tables) {
	cat := planner.BuildCatalog(global, databases, tables)
	for _, class := range global.ClassNames() {
		gc := global.Class(class)
		cs := cat.Classes[class]
		fmt.Printf("%s: %d entities, %.2f avg copies, %.0f%% isomeric\n",
			class, cs.Entities, cs.AvgCopies, 100*cs.IsomericRatio)
		for _, site := range gc.Sites() {
			ext := cat.Extents[schema.Constituent{Site: site, Class: class}]
			fmt.Printf("  %s: %d objects, %d bytes\n", site, ext.Objects, ext.Bytes)
			for _, attr := range gc.AttrNames() {
				if !gc.Holds(site, attr) {
					continue
				}
				s := ext.Attrs[attr]
				if s.Numeric {
					fmt.Printf("    %-12s non-null %d/%d, distinct %d, range [%g, %g]\n",
						attr, s.NonNull, ext.Objects, s.Distinct, s.Min, s.Max)
				} else {
					fmt.Printf("    %-12s non-null %d/%d, distinct %d\n",
						attr, s.NonNull, ext.Objects, s.Distinct)
				}
			}
		}
	}
}

func printFederation(global *schema.Global, databases map[object.SiteID]*store.Database) {
	sites := make([]string, 0, len(databases))
	for site := range databases {
		sites = append(sites, string(site))
	}
	sort.Strings(sites)
	for _, site := range sites {
		db := databases[object.SiteID(site)]
		fmt.Printf("=== %s ===\n", site)
		for _, class := range db.Schema().ClassNames() {
			ext := db.Extent(class)
			fmt.Printf("%s (%d objects):\n", class, ext.Len())
			ext.Scan(func(o *object.Object) bool {
				fmt.Printf("  %s\n", o)
				return true
			})
		}
	}
	fmt.Println("=== global schema ===")
	for _, name := range global.ClassNames() {
		gc := global.Class(name)
		fmt.Printf("%s(%s)\n", name, strings.Join(gc.AttrNames(), ", "))
		for _, site := range gc.Sites() {
			miss := gc.MissingAttrs(site)
			if len(miss) > 0 {
				fmt.Printf("  missing at %s: %s\n", site, strings.Join(miss, ", "))
			}
		}
	}
}
