package agg

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/obs/slo"
)

// WindowStats are a site's (or the federation's) rates over a trailing
// window, computed from cumulative-snapshot deltas. A coordinator-style
// target reports query metrics (queries_total / query_latency_us /
// degraded_queries_total); a component site, which serves remote requests
// rather than executing queries, reports the request family instead — the
// Queries/QPS fields then count requests and Degraded counts errors.
type WindowStats struct {
	SpanS       float64 `json:"span_s"`
	Queries     int64   `json:"queries"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	DegradedPct float64 `json:"degraded_pct"`
}

// SiteStatus is one target's row in the rollup.
type SiteStatus struct {
	Site string `json:"site"`
	URL  string `json:"url,omitempty"`
	// Live: scraped successfully within the staleness bound.
	Live bool `json:"live"`
	// StaleS: seconds since the last successful scrape; -1 if never.
	StaleS      float64 `json:"stale_s"`
	ConsecFails int     `json:"consec_fails,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
	// Status: "ok" or "degraded" from the site's own /healthz,
	// "unreachable" when stale, "unknown" before the first health fetch.
	Status     string            `json:"status"`
	Conditions map[string]string `json:"conditions,omitempty"`
	UptimeS    float64           `json:"uptime_s,omitempty"`
	// Resets: counter resets observed (restarts survived while scraped).
	Resets int64       `json:"resets,omitempty"`
	Window WindowStats `json:"window"`
}

// FedStats aggregate the whole federation.
type FedStats struct {
	SitesLive  int         `json:"sites_live"`
	SitesTotal int         `json:"sites_total"`
	Window     WindowStats `json:"window"`
}

// Rollup is the /cluster document: one snapshot of federation state.
type Rollup struct {
	Site      string       `json:"site"` // the aggregating coordinator
	Time      time.Time    `json:"time"`
	IntervalS float64      `json:"interval_s"`
	WindowS   float64      `json:"window_s"`
	Fed       FedStats     `json:"fed"`
	Sites     []SiteStatus `json:"sites"`
}

// statsFromDelta fills WindowStats from slo.Measures over a windowed
// snapshot delta: the coordinator's query family, or — for a delta that has
// none — the request family a component site records about itself.
func statsFromDelta(d metrics.Snapshot, span time.Duration) WindowStats {
	rate, latency, bad := "throughput", "query_latency", "degraded_queries"
	if !hasMetric(d, "queries_total") && hasMetric(d, "requests_total") {
		rate, latency, bad = "request_throughput", "request_latency", "request_errors"
	}
	m := slo.Measures
	qps, _ := m[rate].Value(d, span, 0)
	p50, _ := m[latency].Value(d, span, 0.50)
	p99, _ := m[latency].Value(d, span, 0.99)
	share, _ := m[bad].Value(d, span, 0)
	return WindowStats{
		SpanS: span.Seconds(), Queries: d.Sum(m[rate].Num), QPS: qps,
		P50Ms: p50 / 1e3, P99Ms: p99 / 1e3, DegradedPct: 100 * share,
	}
}

func hasMetric(s metrics.Snapshot, name string) bool {
	for _, smp := range s.Samples {
		if smp.Name == name {
			return true
		}
	}
	return false
}

// Rollup computes the current federation rollup over the configured
// window.
func (s *Scraper) Rollup() Rollup {
	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()

	out := Rollup{
		Site:      site,
		Time:      now,
		IntervalS: s.cfg.Interval.Seconds(),
		WindowS:   window.Seconds(),
	}
	for _, st := range s.sites {
		row := SiteStatus{
			Site:        st.target.Site,
			URL:         st.target.URL,
			StaleS:      -1,
			ConsecFails: st.consecFails,
			LastError:   st.lastErr,
			Status:      "unknown",
			Resets:      st.resets,
		}
		if !st.lastOK.IsZero() {
			row.StaleS = now.Sub(st.lastOK).Seconds()
			row.Live = now.Sub(st.lastOK) <= s.staleAfter
		}
		if st.haveHealth {
			row.Conditions = st.health.Breakers
			row.UptimeS = st.health.UptimeS
			row.Status = st.health.Status
		}
		if !row.Live {
			row.Status = "unreachable"
		}
		if d, span, ok := windowDelta(st.history, now, window); ok {
			row.Window = statsFromDelta(d, span)
		}
		out.Sites = append(out.Sites, row)
		out.Fed.SitesTotal++
		if row.Live {
			out.Fed.SitesLive++
		}
	}
	if d, span, ok := s.windowDeltaLocked(now, window); ok {
		out.Fed.Window = statsFromDelta(d, span)
	}
	return out
}

// Text renders the rollup as an aligned operator-readable table: the
// default /cluster body and the dashboard's site section.
func (r Rollup) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster @ %s  window=%.0fs interval=%.1fs\n",
		r.Time.Format(time.RFC3339), r.WindowS, r.IntervalS)
	fw := r.Fed.Window
	fmt.Fprintf(&b, "fed: %d/%d live  qps=%.1f p50=%.2fms p99=%.2fms degraded=%.2f%% (%d queries / %.1fs)\n\n",
		r.Fed.SitesLive, r.Fed.SitesTotal, fw.QPS, fw.P50Ms, fw.P99Ms, fw.DegradedPct, fw.Queries, fw.SpanS)
	fmt.Fprintf(&b, "%-6s %-12s %-11s %8s %9s %9s %7s %8s %6s %-14s  %s\n",
		"site", "state", "status", "qps", "p50(ms)", "p99(ms)", "degr%", "up(s)", "resets", "repair", "conditions")
	for _, s := range r.Sites {
		state := "live"
		if !s.Live {
			if s.StaleS < 0 {
				state = "never"
			} else {
				state = fmt.Sprintf("stale(%.0fs)", s.StaleS)
			}
		}
		fmt.Fprintf(&b, "%-6s %-12s %-11s %8.1f %9.2f %9.2f %7.2f %8.0f %6d %-14s  %s\n",
			s.Site, state, s.Status, s.Window.QPS, s.Window.P50Ms, s.Window.P99Ms,
			s.Window.DegradedPct, s.UptimeS, s.Resets, repairState(s.Conditions),
			conditionsText(s.Conditions))
	}
	return b.String()
}

// repairKey is the /healthz condition a replica's anti-entropy state is
// reported under; the table breaks it out into the repair column.
const repairKey = "antientropy:state"

// repairState compacts a site's anti-entropy condition for the repair
// column: a clean replica renders as "ok r<round>", a diverged one keeps its
// suspect class list ("SUSPECT(Teacher)"), and a site reporting no
// anti-entropy state at all shows "-".
func repairState(conds map[string]string) string {
	v, ok := conds[repairKey]
	if !ok {
		return "-"
	}
	if rest, found := strings.CutPrefix(v, "ok(round="); found {
		if i := strings.IndexAny(rest, ",)"); i >= 0 {
			rest = rest[:i]
		}
		return "ok r" + rest
	}
	if rest, found := strings.CutPrefix(v, "suspect"); found {
		if i := strings.Index(rest, ")"); i >= 0 {
			rest = rest[:i+1]
		}
		return "SUSPECT" + rest
	}
	return v
}

// conditionsText compresses the remaining conditions for the table: healthy
// entries collapse into a count, unhealthy ones are spelled out.
func conditionsText(conds map[string]string) string {
	var bad []string
	okCount := 0
	for k, v := range conds {
		switch {
		case k == repairKey:
		case obs.Healthy(v):
			okCount++
		default:
			bad = append(bad, k+"="+v)
		}
	}
	switch {
	case len(bad) == 0 && okCount == 0:
		return "-"
	case len(bad) == 0:
		return fmt.Sprintf("%d ok", okCount)
	}
	sort.Strings(bad)
	out := strings.Join(bad, " ")
	if okCount > 0 {
		out += fmt.Sprintf(" (+%d ok)", okCount)
	}
	return out
}
