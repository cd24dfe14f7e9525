package federation

import (
	"slices"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/tvl"
)

// TestReleasedWorkspaceIsPoisoned: a race-detector build overwrites whatever
// a released workspace handed out — rows, their verdicts, targets and
// unsolved items, check items, a check reply's verdicts — so a result read
// after Release shows it instead of passing for the next query's.
func TestReleasedWorkspaceIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("a released workspace is poisoned in race-detector builds only")
	}
	fx := table2Fixture(t, 200, false)
	sites := fx.sites()
	var (
		pl, bl LocalResult
		checks map[object.SiteID][]CheckItem
		reply  CheckReply
	)
	plWS, blWS, checkWS := sites["DB1"].Workspace(), sites["DB1"].Workspace(), sites["DB3"].Workspace()
	onReal(t, func(p fabric.Proc) {
		var nav *Navigation
		nav, checks = plWS.NavigateAll(p, fx.bound, nil)
		pl = sites["DB1"].EvalNavigated(p, fx.bound, nav)
		bl, _ = blWS.EvalLocalBasic(p, fx.bound, nil)
		reply = checkWS.CheckAssistants(p, checks["DB3"])
	})
	if len(pl.Rows) == 0 || len(bl.Rows) == 0 || len(checks["DB3"]) == 0 || len(reply.Verdicts) == 0 {
		t.Fatalf("%d PL rows, %d BL rows, %d checks for DB3, %d verdicts: too little to tell",
			len(pl.Rows), len(bl.Rows), len(checks["DB3"]), len(reply.Verdicts))
	}
	// The rows as a reader kept them: their verdicts, targets and unsolved
	// items are the workspace's.
	kept := append(slices.Clone(pl.Rows), bl.Rows...)
	plWS.Release()
	blWS.Release()
	checkWS.Release()

	unsolved := 0
	for _, rows := range [][]LocalRow{pl.Rows, bl.Rows} {
		for _, row := range rows {
			if row.GOid != released {
				t.Fatalf("a released row reads %s", row.GOid)
			}
		}
	}
	for _, row := range kept {
		for _, v := range row.Verdicts {
			if v == tvl.True || v == tvl.False || v == tvl.Unknown {
				t.Fatalf("a released row's verdict reads %v", v)
			}
		}
		for _, v := range row.Targets {
			if !v.Equal(object.Str(released)) {
				t.Fatalf("a released row's target reads %v", v)
			}
		}
		for _, u := range row.Unsolved {
			unsolved++
			if u.ItemGOid != released {
				t.Fatalf("a released row's unsolved item reads %s", u.ItemGOid)
			}
		}
	}
	if unsolved == 0 {
		t.Fatal("no kept row has an unsolved item: too little to tell")
	}
	for _, items := range checks {
		for _, it := range items {
			if it.ItemGOid != released || it.Assistant != released {
				t.Fatalf("a released check item reads %s at %s", it.ItemGOid, it.Assistant)
			}
		}
	}
	for _, v := range reply.Verdicts {
		if v.ItemGOid != released {
			t.Fatalf("a released verdict reads %s", v.ItemGOid)
		}
	}
}
