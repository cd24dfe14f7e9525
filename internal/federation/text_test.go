package federation_test

import (
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
)

// killDB3Golden is school Q1 under BL with DB3 dead, as hetql prints it.
const killDB3Golden = `DEGRADED: partial answer, 1 site(s) unavailable:
  DB3: injected fault: site killed
certain results (0):
maybe results (3):
  gs2(Tony, Haley)
    unknown: address.city = "Taipei"; advisor.speciality = "database"
  gs3(Mary, Abel)
    unknown: address.city = "Taipei"; advisor.speciality = "database"; advisor.department.name = "CS"
  gs4(Hedy, Kelly)
    unknown: advisor.department.name = "CS"
`

// TestAnswerTextGolden: the one text form of an answer. With the bound query
// each maybe row names the predicates it left unknown (hetql); without it
// those lines are left out (hetserve, which holds only the query text).
func TestAnswerTextGolden(t *testing.T) {
	fx := school.New()
	b := query.MustBind(query.MustParse(school.Q1), fx.Global)
	engine, err := exec.New(exec.Config{Global: fx.Global, Coordinator: "G", Databases: fx.Databases, Tables: fx.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	faults, err := fabric.ParseFaults("kill:DB3", "G")
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := engine.Run(fabric.NewSim(fabric.DefaultRates(), engine.Sites()).WithFaults(faults()), exec.BL, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.Text(b); got != killDB3Golden {
		t.Errorf("with the bound query:\n%s\nwant:\n%s", got, killDB3Golden)
	}
	var bare []string
	for _, line := range strings.SplitAfter(killDB3Golden, "\n") {
		if !strings.HasPrefix(line, "    unknown: ") {
			bare = append(bare, line)
		}
	}
	if got, want := ans.Text(nil), strings.Join(bare, ""); got != want {
		t.Errorf("without it:\n%s\nwant:\n%s", got, want)
	}
	ans.Outcome = federation.OutcomeDeadline
	if got, want := ans.Text(nil), "INTERRUPTED (deadline): sound partial answer\n"+strings.Join(bare, ""); got != want {
		t.Errorf("interrupted:\n%s\nwant:\n%s", got, want)
	}
}
