package antientropy

import (
	"fmt"
	"testing"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
)

func bindN(t *gmap.Table, d *Digest, n int) {
	for i := 0; i < n; i++ {
		goid := object.GOid(fmt.Sprintf("g:%d", i))
		site := object.SiteID(fmt.Sprintf("DB%d", i%3+1))
		loid := object.LOid(fmt.Sprintf("o%d", i))
		t.MustBind(goid, site, loid)
		d.Add(goid, site, loid)
	}
}

func TestDigestOrderIndependence(t *testing.T) {
	var a, b Digest
	bindings := []Binding{
		{"g:1", "DB1", "o1"}, {"g:2", "DB2", "o2"}, {"g:3", "DB3", "o3"},
	}
	for _, x := range bindings {
		a.Add(x.GOid, x.Site, x.LOid)
	}
	for i := len(bindings) - 1; i >= 0; i-- {
		b.Add(bindings[i].GOid, bindings[i].Site, bindings[i].LOid)
	}
	if !a.Equal(b) {
		t.Fatalf("digest depends on binding order: %v vs %v", a, b)
	}
	if DiffBuckets(a, b) != nil {
		t.Fatalf("equal digests report divergent buckets")
	}
}

func TestDigestDetectsMissingBinding(t *testing.T) {
	var full, missing Digest
	tab := gmap.NewTable("Student")
	bindN(tab, &full, 50)
	for i, goid := range tab.GOids() {
		for _, loc := range tab.Locations(goid) {
			if i == 17 { // drop one binding from the second replica
				continue
			}
			missing.Add(goid, loc.Site, loc.LOid)
		}
	}
	if full.Equal(missing) {
		t.Fatalf("digest missed a dropped binding")
	}
	diff := DiffBuckets(full, missing)
	if len(diff) != 1 {
		t.Fatalf("one dropped binding should diverge exactly one bucket, got %v", diff)
	}
	// The divergent bucket's bindings must include the dropped one and be a
	// strict subset of the table.
	got := BucketBindings(tab, diff)
	if len(got) == 0 || len(got) >= tab.Bindings() {
		t.Fatalf("BucketBindings returned %d of %d bindings — no range narrowing", len(got), tab.Bindings())
	}
}

func TestDiffClasses(t *testing.T) {
	var d1, d2 Digest
	d1.Add("g:1", "DB1", "o1")
	d2.Add("g:1", "DB1", "o1")
	a := map[string]Digest{"Student": d1, "Course": {}}
	b := map[string]Digest{"Student": d2}
	if diff := DiffClasses(a, b); diff != nil {
		t.Fatalf("equal replicas (empty class vs absent class) diverged: %v", diff)
	}
	d1.Add("g:2", "DB2", "o2")
	a["Student"] = d1
	if diff := DiffClasses(a, b); len(diff) != 1 || diff[0] != "Student" {
		t.Fatalf("DiffClasses = %v, want [Student]", diff)
	}
}

func TestDiffBucketsXORCancellation(t *testing.T) {
	// A double-applied binding XOR-cancels out of its bucket but bumps
	// Count; the diff must fall back to repairing every bucket rather than
	// reporting convergence.
	var a, b Digest
	a.Add("g:1", "DB1", "o1")
	b.Add("g:1", "DB1", "o1")
	b.Add("g:2", "DB2", "o2")
	b.Add("g:2", "DB2", "o2")
	if a.Equal(b) {
		t.Fatalf("count mismatch compared equal")
	}
	if diff := DiffBuckets(a, b); len(diff) != Buckets {
		t.Fatalf("XOR-canceled divergence must repair all buckets, got %v", diff)
	}
}

func TestTrackerSeedMatchesIncremental(t *testing.T) {
	tables := gmap.NewTables()
	inc := NewTracker()
	tab := tables.Table("Student")
	for i := 0; i < 40; i++ {
		goid := object.GOid(fmt.Sprintf("g:%d", i))
		site := object.SiteID(fmt.Sprintf("DB%d", i%3+1))
		loid := object.LOid(fmt.Sprintf("o%d", i))
		tab.MustBind(goid, site, loid)
		inc.Observe("Student", goid, site, loid)
	}
	seeded := NewTracker()
	seeded.Seed(tables)
	if diff := DiffClasses(inc.Snapshot(), seeded.Snapshot()); diff != nil {
		t.Fatalf("seeded digest diverges from incrementally maintained one: %v", diff)
	}
}

func TestTrackerSuspects(t *testing.T) {
	tr := NewTracker()
	if got := tr.SuspectOf([]string{"Student"}); got != nil {
		t.Fatalf("fresh tracker has suspects: %v", got)
	}
	tr.MarkSuspect("Student", "quorum disagreement")
	tr.MarkSuspect("Course", "quorum disagreement")
	if got := tr.SuspectOf([]string{"Course", "Dept"}); len(got) != 1 || got[0] != "Course" {
		t.Fatalf("SuspectOf = %v, want [Course]", got)
	}
	h := tr.Health()
	if h["state"] == "" || h["state"][:7] != "suspect" {
		t.Fatalf("suspect tracker reports healthy: %q", h["state"])
	}
	tr.ClearSuspect("Student")
	tr.ClearSuspect("Course")
	tr.EndRound(3, 128)
	h = tr.Health()
	if h["state"] != "ok(round=1, repaired=128B)" {
		t.Fatalf("health = %q", h["state"])
	}
}
