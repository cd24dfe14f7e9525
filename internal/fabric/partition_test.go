package fabric

import (
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

func sites(ids ...string) []object.SiteID {
	out := make([]object.SiteID, len(ids))
	for i, id := range ids {
		out[i] = object.SiteID(id)
	}
	return out
}

func TestPartitionCutsBothDirections(t *testing.T) {
	fp := NewFaultPlan().Partition(Partition{A: sites("G", "DB1"), B: sites("DB2", "DB3")})
	for _, pair := range [][2]object.SiteID{
		{"G", "DB2"}, {"DB2", "G"}, {"DB1", "DB3"}, {"DB3", "DB1"},
	} {
		if fp.BeginLinkOp(pair[0], pair[1]) {
			t.Fatalf("BeginLinkOp let %s→%s through a partition", pair[0], pair[1])
		}
		if r := fp.LinkReason(pair[0], pair[1]); !strings.Contains(r, "partition") {
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
	fp.HealPartitions()
	if !fp.BeginLinkOp("G", "DB2") {
		t.Fatalf("HealPartitions left the link down")
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
	// Callers without link identity are never partitioned.
	fp = NewFaultPlan().Partition(Partition{A: sites("G"), B: sites("DB1")})
	if !fp.BeginLinkOp("", "DB1") || fp.LinkReason("", "DB1") != "" {
		t.Fatalf("anonymous caller was partitioned")
	}
}

func TestFaultPlanStringWithLinks(t *testing.T) {
	fp := NewFaultPlan().
		Partition(Partition{A: sites("G"), B: sites("DB1", "DB2")}).
		DropLink("DB1", "DB2")
	s := fp.String()
	for _, want := range []string{"partition(G|DB1,DB2)", "droplink(DB1→DB2)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

// TestParseFaults covers the one fault-spec grammar's edges: the terms, the
// two amounts a delay takes, the forms that need a local site, and the
// factory's fresh plans.
func TestParseFaults(t *testing.T) {
	for _, good := range []string{"none", "", "kill:DB2", "drop:DB1:5", "delay:DB3:1500", "delay:DB3:5ms", "kill:DB1,delay:DB2:1ms"} {
		if _, err := ParseFaults(good, ""); err != nil {
			t.Errorf("ParseFaults(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"kill", "kill:", "drop:DB1:x", "drop:DB1:-1", "delay:DB1", "delay:5ms", "delay:DB1:-5ms", "zap:DB1", "cut:DB2", "kill:DB1:3", "kill:DB1,zap"} {
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
