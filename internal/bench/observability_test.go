package bench

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestRunObsSmoke: one observability-overhead run end to end — both modes
// over real TCP, the scraped mode with the full scraper + SLO plane
// polling at an aggressive cadence.
func TestRunObsSmoke(t *testing.T) {
	spec := ObsSpec{
		Queries:        12,
		Clients:        2,
		Rounds:         1,
		Seed:           7,
		ScrapeInterval: 20 * time.Millisecond,
	}
	var lines []string
	r, err := RunObs(context.Background(), spec, func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatalf("RunObs: %v", err)
	}
	cells, _ := r.Cells.([]ObsCell)
	if len(cells) != 2 {
		t.Fatalf("got cells %+v, want 2 obs cells", r.Cells)
	}
	byMode := map[string]ObsCell{}
	for _, c := range cells {
		byMode[c.Mode] = c
	}
	base, scraped := byMode["baseline"], byMode["scraped"]
	if base.Client.Completed != spec.Queries || scraped.Client.Completed != spec.Queries {
		t.Fatalf("completed %d/%d, want %d each",
			base.Client.Completed, scraped.Client.Completed, spec.Queries)
	}
	if base.Overhead != 1.0 {
		t.Errorf("baseline overhead = %v, want 1.0", base.Overhead)
	}
	if scraped.Overhead <= 0 {
		t.Errorf("scraped overhead = %v, want > 0", scraped.Overhead)
	}
	// The plane really watched: passes completed against every target
	// (coordinator + 3 school sites) and all ended live.
	if scraped.Scrapes == 0 {
		t.Errorf("scraped cell recorded no scrape passes")
	}
	if scraped.SitesLive != 4 || scraped.SitesTotal != 4 {
		t.Errorf("rollup liveness %d/%d, want 4/4", scraped.SitesLive, scraped.SitesTotal)
	}
	if base.Scrapes != 0 || base.SitesTotal != 0 {
		t.Errorf("baseline cell carries scraper stats: %+v", base)
	}
	if len(lines) != 2 || !strings.Contains(lines[1], "scraped") {
		t.Errorf("progress lines = %q", lines)
	}
}

// TestRunObsGate: an impossible gate must fail the run while still
// returning the measured report.
func TestRunObsGate(t *testing.T) {
	spec := ObsSpec{
		Queries:        4,
		Clients:        1,
		Rounds:         1,
		Seed:           7,
		ScrapeInterval: 20 * time.Millisecond,
		MaxOverhead:    0.01,
	}
	r, err := RunObs(context.Background(), spec, nil)
	if err == nil {
		t.Fatal("0.01x overhead gate passed")
	}
	if !strings.Contains(err.Error(), "gate") {
		t.Errorf("err = %v, want overhead gate failure", err)
	}
	if r == nil {
		t.Fatal("gated run did not return the measured report")
	}
	if cells, _ := r.Cells.([]ObsCell); len(cells) != 2 {
		t.Errorf("gated run's report has cells %+v, want 2 obs cells", r.Cells)
	}
}
