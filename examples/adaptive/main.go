// Adaptive demonstrates cost-based strategy selection: the planner builds
// catalog statistics for a generated federation, predicts each strategy's
// response time for queries of different shapes, picks one, and the
// simulator then measures all three so the prediction quality is visible.
//
// The shapes mirror the paper's findings: selective predicates favor BL
// strongly; queries whose predicates are mostly missing locally narrow the
// gap; CA is the fallback when local evaluation cannot eliminate anything.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"math/rand"

	hetfed "github.com/hetfed/hetfed"
)

func main() {
	ranges := hetfed.DefaultWorkloadRanges()
	ranges.NClasses = [2]int{2, 2}
	ranges.NPredsPerClass = [2]int{2, 2}
	ranges.NObjects = [2]int{1200, 1500}

	rng := rand.New(rand.NewSource(11))
	w, err := hetfed.GenerateWorkload(ranges.Draw(rng), rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federation: %d objects across %d sites\n\n", w.Stats.Objects, 3)

	engine, err := hetfed.NewEngine(hetfed.EngineConfig{
		Global:      w.Global,
		Coordinator: "G",
		Databases:   w.Databases,
		Tables:      w.Tables,
	})
	if err != nil {
		log.Fatal(err)
	}
	cat := hetfed.BuildCatalog(w.Global, w.Databases, w.Tables)

	queries := []struct {
		name string
		src  string
	}{
		{"selective local", `select t0 from C1 where p0 < 100 and p1 < 100`},
		{"broad local", `select t0 from C1 where p0 < 900 and p1 < 900`},
		{"nested chain", `select t0 from C1 where p0 < 400 and next.p0 < 400`},
		{"no elimination", `select t0 from C1 where p0 >= 0`},
	}

	for _, qc := range queries {
		q, err := hetfed.ParseQuery(qc.src)
		if err != nil {
			log.Fatal(err)
		}
		b, err := hetfed.BindQuery(q, w.Global)
		if err != nil {
			log.Fatal(err)
		}

		// A selector that has observed no query prices every site at the
		// paper's Table 1 rates.
		planner := hetfed.NewSelector(cat, "G")
		chosen := planner.Select(b)
		fmt.Printf("%s: %s\n", qc.name, qc.src)
		fmt.Printf("  planner chose %v\n", chosen)

		ests := planner.Estimate(b)
		best := hetfed.Algorithm(0)
		actual := map[hetfed.Algorithm]float64{}
		for _, alg := range hetfed.Algorithms() {
			rt := hetfed.NewSimRuntime(hetfed.DefaultRates(), engine.Sites())
			_, m, err := engine.Run(rt, alg, b)
			if err != nil {
				log.Fatal(err)
			}
			actual[alg] = m.ResponseMicros
			if best == 0 || m.ResponseMicros < actual[best] {
				best = alg
			}
		}
		for _, est := range ests {
			marker := " "
			if est.Alg == chosen {
				marker = "*"
			}
			fmt.Printf("  %s %-3v predicted %8.1f ms   measured %8.1f ms\n",
				marker, est.Alg, est.ResponseMicros/1e3, actual[est.Alg]/1e3)
		}
		if chosen == best {
			fmt.Printf("  -> optimal (actual best: %v)\n\n", best)
		} else {
			regret := actual[chosen]/actual[best] - 1
			fmt.Printf("  -> actual best was %v (regret %.0f%%)\n\n", best, 100*regret)
		}
	}
}
