package remote

import (
	"context"
	"slices"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// observingSelector keeps the profiles a selector is fed.
type observingSelector struct {
	*planner.Selector
	seen []*trace.Profile
}

func (s *observingSelector) Observe(p *trace.Profile) {
	s.seen = append(s.seen, p)
	s.Selector.Observe(p)
}

// TestCalibrationLoopOverTCP closes the selector's calibration loop over the
// wire: traced servers stamp disk_bytes and cpu_ops on the spans they ship
// back, BuildProfile folds them into Profile.IO, and the calibrator re-rates
// each answering site from that. After one adaptive query the profile the
// selector observed names every answering component site's disk bytes, and
// the selector's estimates have moved off a fresh selector's.
func TestCalibrationLoopOverTCP(t *testing.T) {
	fed := schoolFed()
	cat := planner.BuildCatalog(fed.Global, fed.Databases, fed.Tables)
	sel := &observingSelector{Selector: planner.NewSelector(cat, "G")}
	coord := recordedCoordinator()
	coord.Selector = sel
	coord, _ = testCluster(t, fed, coord, observed)

	ans, _, err := coord.QueryContext(context.Background(), school.Q1, exec.Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded {
		t.Fatalf("healthy cluster answered degraded: %+v", ans.Unavailable)
	}
	if len(sel.seen) != 1 {
		t.Fatalf("selector observed %d profiles, want 1", len(sel.seen))
	}
	p := sel.seen[0]
	answering := 0
	for _, site := range p.Sites {
		if site == coord.ID || slices.Contains(p.Unavailable, string(site)) {
			continue
		}
		answering++
		if io := p.IO[string(site)]; io.DiskBytes <= 0 {
			t.Errorf("%s answered but the observed profile's IO has no disk bytes: %+v", site, io)
		}
	}
	if answering == 0 {
		t.Fatalf("the observed profile names no answering component site: %v", p.Sites)
	}

	b, err := query.Bind(query.MustParse(school.Q1), fed.Global)
	if err != nil {
		t.Fatal(err)
	}
	got, fresh := sel.Estimate(b), planner.NewSelector(cat, "G").Estimate(b)
	moved := false
	for i := range got {
		if got[i].ResponseMicros != fresh[i].ResponseMicros || got[i].TotalMicros != fresh[i].TotalMicros {
			moved = true
		}
	}
	if !moved {
		t.Errorf("one observed query left every estimate at the fresh selector's: %+v", got)
	}
}
