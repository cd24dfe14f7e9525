package obs

import (
	"fmt"
	"strings"

	"github.com/hetfed/hetfed/internal/trace"
)

// QuerySummary is one row of a query listing: the fields of a trace.Profile
// that matter for triage, plus Sources — the sites whose flight recorders
// hold the profile. The full span tree stays one link away at
// /debug/trace/{id}.json on any source site.
type QuerySummary struct {
	ID          string   `json:"id"`
	Alg         string   `json:"alg"`
	Status      string   `json:"status"`
	WallMicros  float64  `json:"wall_us"`
	Certain     int      `json:"certain"`
	Maybe       int      `json:"maybe"`
	Unavailable []string `json:"unavailable,omitempty"`
	Sources     []string `json:"sources,omitempty"`
}

// Summarize builds the listing row of a profile held by source's recorder.
func Summarize(p *trace.Profile, source string) QuerySummary {
	return QuerySummary{
		ID: p.ID, Alg: p.Alg, Status: p.Status, WallMicros: p.WallMicros,
		Certain: p.Certain, Maybe: p.Maybe, Unavailable: p.Unavailable,
		Sources: []string{source},
	}
}

// QueriesText renders a query listing — a site's /debug/queries, the
// coordinator's /cluster/queries and the dashboard's slow-query section.
// link prefixes each trace link with the base URL of the surface serving
// it; empty on that surface itself.
func QueriesText(qs []QuerySummary, link string) string {
	if len(qs) == 0 {
		return "(no queries recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-8s %-9s %10s %8s %6s  %-16s %s\n",
		"query", "alg", "status", "wall(ms)", "certain", "maybe", "sources", "trace")
	for _, q := range qs {
		fmt.Fprintf(&b, "%-14s %-8s %-9s %10.3f %8d %6d  %-16s %s/debug/trace/%s.json\n",
			q.ID, q.Alg, q.Status, q.WallMicros/1e3, q.Certain, q.Maybe,
			strings.Join(q.Sources, ","), link, q.ID)
	}
	return b.String()
}
