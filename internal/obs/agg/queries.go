package agg

import (
	"context"
	"sort"
	"sync"

	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/trace"
)

// SlowQueries merges every target's flight-recorder listing into one
// federation log: profiles deduped by trace ID (a query recorded by the
// coordinator and by the sites it touched is one row, keeping the longest
// wall clock — the end-to-end view), sorted slowest first, truncated to
// limit (0 = no limit). Unreachable sites are skipped; the log is
// best-effort by design.
func (s *Scraper) SlowQueries(ctx context.Context, limit int) []obs.QuerySummary {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	targets := make([]Target, len(s.sites))
	for i, st := range s.sites {
		targets[i] = st.target
	}
	s.mu.Unlock()

	results := make([][]*trace.Profile, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			switch {
			case t.Local == nil:
				var listed []*trace.Profile
				if obs.FetchJSON(ctx, s.client, t.URL+"/debug/queries?format=json", &listed) == nil {
					results[i] = listed
				}
			case t.LocalQueries != nil:
				results[i] = t.LocalQueries()
			}
		}(i, t)
	}
	wg.Wait()

	byID := make(map[string]*obs.QuerySummary)
	var order []string
	for i, profiles := range results {
		for _, p := range profiles {
			if p == nil || p.ID == "" {
				continue
			}
			q := obs.Summarize(p, targets[i].Site)
			cur, seen := byID[q.ID]
			if !seen {
				byID[q.ID] = &q
				order = append(order, q.ID)
				continue
			}
			q.Sources = append(cur.Sources, q.Sources...)
			if q.WallMicros > cur.WallMicros {
				*cur = q
			} else {
				cur.Sources = q.Sources
			}
		}
	}
	merged := make([]obs.QuerySummary, 0, len(order))
	for _, id := range order {
		merged = append(merged, *byID[id])
	}
	sort.SliceStable(merged, func(i, j int) bool {
		return merged[i].WallMicros > merged[j].WallMicros
	})
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged
}
