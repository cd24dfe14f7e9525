package fabric

import (
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

// cut drops every link between the a side and the b side, both ways: a
// partition.
func cut(fp *FaultPlan, a, b []object.SiteID) *FaultPlan {
	for _, x := range a {
		for _, y := range b {
			fp.DropLink(x, y).DropLink(y, x)
		}
	}
	return fp
}

func TestPartitionCutsBothDirections(t *testing.T) {
	side := [2][]object.SiteID{{"G", "DB1"}, {"DB2", "DB3"}}
	fp := cut(NewFaultPlan(), side[0], side[1])
	for _, pair := range [][2]object.SiteID{
		{"G", "DB2"}, {"DB2", "G"}, {"DB1", "DB3"}, {"DB3", "DB1"},
	} {
		if fp.BeginLinkOp(pair[0], pair[1]) {
			t.Fatalf("BeginLinkOp let %s→%s through a partition", pair[0], pair[1])
		}
		if r := fp.LinkReason(pair[0], pair[1]); !strings.Contains(r, "dropped") {
			t.Fatalf("LinkReason(%s→%s) = %q", pair[0], pair[1], r)
		}
	}
	// Same-side and uninvolved traffic flows.
	for _, pair := range [][2]object.SiteID{
		{"G", "DB1"}, {"DB2", "DB3"}, {"G", "DB9"}, {"DB9", "DB2"},
	} {
		if !fp.BeginLinkOp(pair[0], pair[1]) || fp.LinkReason(pair[0], pair[1]) != "" {
			t.Fatalf("partition wrongly cut %s→%s", pair[0], pair[1])
		}
	}
	// Site-level views are unaffected: the processes are alive.
	if fp.Reason("DB2") != "" || !fp.BeginOp("DB2") {
		t.Fatalf("partition killed a process")
	}
	for _, x := range side[0] {
		for _, y := range side[1] {
			fp.HealLink(x, y).HealLink(y, x)
		}
	}
	if !fp.BeginLinkOp("G", "DB2") || !fp.BeginLinkOp("DB3", "DB1") || fp.String() != "none" {
		t.Fatalf("healing every cut link left the plan %s", fp)
	}
}

func TestAsymmetricLinkLoss(t *testing.T) {
	fp := NewFaultPlan().DropLink("G", "DB1")
	if fp.BeginLinkOp("G", "DB1") {
		t.Fatalf("dropped link let traffic through")
	}
	if !fp.BeginLinkOp("DB1", "G") {
		t.Fatalf("DropLink cut the reverse direction too")
	}
	if r := fp.LinkReason("G", "DB1"); !strings.Contains(r, "dropped") {
		t.Fatalf("LinkReason = %q", r)
	}
	fp.HealLink("G", "DB1")
	if !fp.BeginLinkOp("G", "DB1") {
		t.Fatalf("HealLink did not restore the edge")
	}
}

func TestNilPlanLinkOps(t *testing.T) {
	var fp *FaultPlan
	if !fp.BeginLinkOp("G", "DB1") || fp.LinkReason("G", "DB1") != "" {
		t.Fatalf("nil plan injected link faults")
	}
	// Callers without link identity are never cut off.
	fp = cut(NewFaultPlan(), []object.SiteID{"G"}, []object.SiteID{"DB1"})
	if !fp.BeginLinkOp("", "DB1") || fp.LinkReason("", "DB1") != "" {
		t.Fatalf("anonymous caller was partitioned")
	}
}

func TestFaultPlanStringWithLinks(t *testing.T) {
	fp := NewFaultPlan().Kill("DB3").DropLink("DB1", "DB2").DropLink("G", "DB1")
	if s, want := fp.String(), "droplink(DB1→DB2) droplink(G→DB1) kill(DB3)"; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}

// TestParseFaults covers the one fault-spec grammar's edges: the terms, the
// two amounts a delay takes (finite ones only), the forms that need a local
// site, and the factory's fresh plans.
func TestParseFaults(t *testing.T) {
	for _, good := range []string{"none", "", "kill:DB2", "drop:DB1:5", "delay:DB3:1500", "delay:DB3:5ms", "kill:DB1,delay:DB2:1ms"} {
		if _, err := ParseFaults(good, ""); err != nil {
			t.Errorf("ParseFaults(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"kill", "kill:", "drop:DB1:x", "drop:DB1:-1", "delay:DB1", "delay:5ms", "delay:DB1:-5ms", "delay:DB3:Inf", "delay:DB3:+Inf", "zap:DB1", "cut:DB2", "kill:DB1:3", "kill:DB1,zap"} {
		if _, err := ParseFaults(bad, ""); err == nil {
			t.Errorf("ParseFaults(%q) accepted without a local site", bad)
		}
	}
	if f, _ := ParseFaults("none", "DB1"); f() != nil {
		t.Error("a spec without faults yields a plan")
	}

	// In a process that is a site, kill and delay may leave the site out,
	// and cut names the far end of this process's links.
	factory, err := ParseFaults("delay:5ms, cut:DB2, kill", "DB1")
	if err != nil {
		t.Fatal(err)
	}
	fp := factory()
	if got := fp.DelayMicros("DB1"); got != 5000 {
		t.Errorf("delay:5ms at DB1 = %v micros, want 5000", got)
	}
	if fp.BeginOp("DB1") || !fp.BeginOp("DB2") {
		t.Error("kill did not kill the local site alone")
	}
	if fp.BeginLinkOp("DB1", "DB2") || fp.BeginLinkOp("DB2", "DB1") || !fp.BeginLinkOp("DB1", "DB3") {
		t.Error("cut:DB2 did not cut exactly the DB1-DB2 links, both ways")
	}
	if factory, _ = ParseFaults("delay:DB3:1500", "DB1"); factory().DelayMicros("DB3") != 1500 {
		t.Error("a bare delay amount is not micros")
	}

	// The factory yields independent plans: consuming one plan's drop
	// budget must not bleed into the next (per-query semantics).
	factory, _ = ParseFaults("drop:DB1:1", "")
	p1 := factory()
	p1.BeginOp("DB1")
	if p1.BeginOp("DB1") {
		t.Error("drop budget not consumed")
	}
	if p2 := factory(); !p2.BeginOp("DB1") {
		t.Error("fresh plan inherited a consumed budget")
	}
}
