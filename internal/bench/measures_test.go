package bench

import (
	"testing"

	"github.com/hetfed/hetfed/internal/metrics"
)

// TestDerivedMeasuresAgree: a report's server stats are read off the window's
// metrics delta — sums of the coordinator family and its two shares, the
// maybe share of returned rows and the degraded share of queries — and a
// share with nothing to judge (no row returned, no query run) is zero, as
// its certain complement is.
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
	cases := []struct {
		name           string
		before, window func(*metrics.Registry) // the process's history, the window's work
		want           ServerStats
	}{
		{"coordinator family", coordinator, coordinator, ServerStats{Queries: 200, CertainRows: 300, MaybeRows: 133,
			DegradedQueries: 7, MaybeFrac: 0.3072, CertainFrac: 0.6928, DegradedFrac: 0.035}},
		{"site request family", site, site, ServerStats{}},
		{"empty window", coordinator, func(*metrics.Registry) {}, ServerStats{}},
		{"zero denominator", rowless, rowless, ServerStats{Queries: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			tc.before(reg)
			before := reg.Snapshot()
			tc.window(reg)
			if got := extractServerStats(reg.Delta(before)); got != tc.want {
				t.Errorf("server stats\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
