package agg

import (
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
)

// SetStaleAfter widens the staleness bound past three intervals, for a test
// whose scrape rounds can outlast that on a loaded machine. Call before Start.
func (s *Scraper) SetStaleAfter(d time.Duration) { s.staleAfter = d }

// LastRaw returns the snapshot the scraper last took of the named target, as
// the target reported it: what the next scrape is compared with to tell a
// counter reset. The end-to-end test waits on it before it kills a site, and
// prints it when a reset is not counted.
func (s *Scraper) LastRaw(site string) metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.sites {
		if st.target.Site == site {
			return st.lastRaw
		}
	}
	return metrics.Snapshot{}
}
