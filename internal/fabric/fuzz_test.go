package fabric

import (
	"math"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

// FuzzParseFaults: the fault grammar every command line feeds (hetql -fault,
// hetserve -fault, hetbench cell faults and figure sweeps) never panics; a
// spec it accepts builds a plan, a fresh one per call, unless every term is
// blank or "none", and then the plan is nil; every delay it installs is
// finite. Seeds: testdata/fuzz.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec, self string) {
		factory, err := ParseFaults(spec, object.SiteID(self))
		if err != nil {
			return
		}
		faultless := true
		for _, term := range strings.Split(spec, ",") {
			if term = strings.TrimSpace(term); term != "" && term != "none" {
				faultless = false
			}
		}
		plan := factory()
		if faultless != (plan == nil) {
			t.Fatalf("ParseFaults(%q, %q): plan %v, want nil only for a faultless spec", spec, self, plan)
		}
		if plan != nil && plan == factory() {
			t.Fatalf("ParseFaults(%q, %q): two calls share one plan; drop budgets are per run", spec, self)
		}
		for _, term := range append(strings.Split(spec, ","), ":"+self) {
			for _, site := range strings.Split(strings.TrimSpace(term), ":")[1:] {
				if d := plan.DelayMicros(object.SiteID(site)); math.IsInf(d, 0) || math.IsNaN(d) {
					t.Fatalf("ParseFaults(%q, %q): %s stalls by %g µs, want a finite delay", spec, self, site, d)
				}
			}
		}
	})
}
