package bench

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs/agg"
	"github.com/hetfed/hetfed/internal/obs/slo"
)

// TestDerivedMeasuresAgree: slo.Measures, the cluster rollup's window stats
// and a report's server stats are three readers of one definition per
// measure, so on a hand-built snapshot delta they read the same numbers —
// and where the table says "nothing to judge" (an empty window, a zero
// denominator) the other two report zero.
func TestDerivedMeasuresAgree(t *testing.T) {
	bl, ca := metrics.Labels{Site: "G", Alg: "BL"}, metrics.Labels{Site: "G", Alg: "CA"}
	db1 := metrics.Labels{Site: "DB1", Alg: "BL"}
	coordinator := func(r *metrics.Registry) {
		r.Counter("queries_total", bl).Add(150)
		r.Counter("queries_total", ca).Add(50)
		r.Counter("degraded_queries_total", bl).Add(7)
		r.Counter("results_certain_total", metrics.Labels{Alg: "BL"}).Add(300)
		r.Counter("results_maybe_total", metrics.Labels{Alg: "BL"}).Add(100)
		r.Counter("results_maybe_total", metrics.Labels{Alg: "CA"}).Add(33)
		r.Counter("requests_total", db1).Add(900) // a site's series beside them: ignored
		for i := 0; i < 200; i++ {
			r.Histogram("query_latency_us", bl).Observe(float64(100 + 40*i))
		}
	}
	site := func(r *metrics.Registry) { // a component site has no query series at all
		r.Counter("requests_total", db1).Add(400)
		r.Counter("request_errors_total", db1).Add(4)
		for i := 0; i < 50; i++ {
			r.Histogram("request_latency_us", db1).Observe(float64(20 + i))
		}
	}
	rowless := func(r *metrics.Registry) { // queries ran, none returned a row
		r.Counter("queries_total", bl).Add(5)
		r.Histogram("query_latency_us", bl).Observe(700)
	}
	queryFamily := [3]string{"throughput", "query_latency", "degraded_queries"}
	cases := []struct {
		name           string
		before, window func(*metrics.Registry) // the process's history, the window's work
		// family is what the rollup must pick: the table's rate, latency and
		// bad-share rows.
		family [3]string
		judged map[string]bool // the shares the table must judge
	}{
		{"coordinator family", coordinator, coordinator, queryFamily,
			map[string]bool{"maybe_rows": true, "degraded_queries": true, "request_errors": true}},
		{"site request family", site, site,
			[3]string{"request_throughput", "request_latency", "request_errors"},
			map[string]bool{"request_errors": true}},
		{"empty window", coordinator, func(*metrics.Registry) {}, queryFamily, nil},
		{"zero denominator", rowless, rowless, queryFamily,
			map[string]bool{"degraded_queries": true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			tc.before(reg)
			before := reg.Snapshot()
			tc.window(reg)
			d := reg.Delta(before)

			// The rollup reads the same window through a scraper: one pass
			// on the earlier snapshot, one on the later.
			serve := before
			scr, err := agg.New(agg.Config{Targets: []agg.Target{{Site: "X",
				Local: func() metrics.Snapshot { return serve }}}})
			if err != nil {
				t.Fatal(err)
			}
			scr.ScrapeOnce(context.Background())
			time.Sleep(time.Millisecond)
			serve = reg.Snapshot()
			scr.ScrapeOnce(context.Background())
			ws := scr.Rollup().Sites[0].Window
			span := time.Duration(ws.SpanS * float64(time.Second))

			table := func(name string, q float64) (float64, bool) {
				return slo.Measures[name].Value(d, span, q)
			}
			for name := range slo.Measures {
				if slo.Measures[name].Unit != "ratio" || name == "availability" {
					continue
				}
				if _, ok := table(name, 0); ok != tc.judged[name] {
					t.Errorf("table judges %s: %v, want %v", name, ok, tc.judged[name])
				}
			}

			rate, _ := table(tc.family[0], 0)
			p50, _ := table(tc.family[1], 0.50)
			p99, _ := table(tc.family[1], 0.99)
			bad, _ := table(tc.family[2], 0)
			if ws.Queries != d.Sum(slo.Measures[tc.family[0]].Num) {
				t.Errorf("rollup counts %d, the window holds %d", ws.Queries, d.Sum(slo.Measures[tc.family[0]].Num))
			}
			if ws.P50Ms != p50/1e3 || ws.P99Ms != p99/1e3 || ws.DegradedPct != 100*bad {
				t.Errorf("rollup %+v, table p50 %g µs p99 %g µs bad share %g", ws, p50, p99, bad)
			}
			// SpanS is the span in float seconds; through it the rates agree
			// to rounding.
			if math.Abs(ws.QPS-rate) > 1e-6*rate {
				t.Errorf("rollup qps %g, table %s %g", ws.QPS, tc.family[0], rate)
			}

			// A report reads the coordinator family only.
			st := extractServerStats(d)
			maybe, judged := table("maybe_rows", 0)
			degraded, _ := table("degraded_queries", 0)
			want := ServerStats{MaybeFrac: round4(maybe), DegradedFrac: round4(degraded)}
			if judged {
				want.CertainFrac = round4(1 - maybe)
			}
			if st.MaybeFrac != want.MaybeFrac || st.CertainFrac != want.CertainFrac || st.DegradedFrac != want.DegradedFrac {
				t.Errorf("report shares %+v, table gives maybe %g certain %g degraded %g",
					st, want.MaybeFrac, want.CertainFrac, want.DegradedFrac)
			}
			if st.Queries != d.Sum("queries_total") || st.MaybeRows != d.Sum("results_maybe_total") {
				t.Errorf("report sums %+v", st)
			}
		})
	}
}
