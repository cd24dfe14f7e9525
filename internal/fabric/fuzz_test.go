package fabric

import (
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

// FuzzParseFaults: the fault grammar every command line feeds (hetql -fault,
// hetserve -fault, hetbench cell faults and figure sweeps) never panics; a
// spec it accepts builds a plan, a fresh one per call, unless every term is
// blank or "none", and then the plan is nil. Seeds: testdata/fuzz.
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
	})
}
