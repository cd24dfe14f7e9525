package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile of the values the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// which is what the benchmark's driver uses. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median,
// NaN when fewer than two runs make it unknowable.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// loadSet reads a comma-separated list of result files: one set of runs of
// one version of the code.
func loadSet(list string) ([]*report, error) {
	var set []*report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Env.Quick {
			return nil, fmt.Errorf("%s was measured with -quick; its windows are too short to compare", path)
		}
		set = append(set, &r)
	}
	return set, nil
}

// verdict classifies one metric of one workload. worse is the share by
// which the second set's median is worse than the first's (negative when it
// is better); spread is the wider of the two sets' own spreads, NaN when
// unknown.
func verdict(worse, spread, bound float64) string {
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	default:
		return "ok"
	}
}

// compareFiles prints, per workload and end-to-end metric, how the second
// set of runs differs from the first, against the metric's bound. Each
// argument is one result file or several joined by commas.
func compareFiles(w io.Writer, a, b string) error {
	setA, err := loadSet(a)
	if err != nil {
		return err
	}
	setB, err := loadSet(b)
	if err != nil {
		return err
	}
	values := func(set []*report, workload, metric string) []float64 {
		var out []float64
		for _, r := range set {
			if wr := r.Workloads[workload]; wr != nil && wr.EndToEnd != nil {
				if m, ok := wr.EndToEnd.Metrics[metric]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	failedShare := func(set []*report, workload string) float64 {
		var failed, attempted int
		for _, r := range set {
			if wr := r.Workloads[workload]; wr != nil && wr.EndToEnd != nil {
				failed += wr.EndToEnd.Failed
				attempted += wr.EndToEnd.Attempted
			}
		}
		if attempted == 0 {
			return 0
		}
		return float64(failed) / float64(attempted)
	}
	fmt.Fprintf(w, "%-12s %-10s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "first", "second", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, ws := range workloads {
		for _, ms := range endToEnd {
			va, vb := values(setA, ws.Name, ms.Name), values(setB, ws.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if ms.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(va), spread(vb)) // NaN when either is unknown
			v := verdict(worse, sp, ms.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-10s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				ws.Name, ms.Name, ma, mb, worse*100, sp*100, ms.Bound*100, v)
		}
		fa, fb := failedShare(setA, ws.Name), failedShare(setB, ws.Name)
		v := "ok"
		if fb > fa {
			v = "regressed"
			regressed++
		}
		fmt.Fprintf(w, "%-12s %-10s %12.4g %12.4g %8s %8s %7s  %s\n", ws.Name, "failed_share", fa, fb, "", "", "any", v)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
