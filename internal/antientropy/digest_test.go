package antientropy

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
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

// TestTrackerSeedMatchesIncremental: the digests a replica keeps up binding
// by binding are the digests its tables compute to from scratch.
func TestTrackerSeedMatchesIncremental(t *testing.T) {
	tables, state := gmap.NewTables(), new(sync.RWMutex)
	r := NewReplica("DB1", tables, state, nil, nil, nil, nil)
	state.Lock()
	for i := 0; i < 40; i++ {
		b := Binding{object.GOid(fmt.Sprintf("g:%d", i)), object.SiteID(fmt.Sprintf("DB%d", i%3+1)), object.LOid(fmt.Sprintf("o%d", i))}
		if _, err := r.Apply("Student", b); err != nil {
			t.Fatal(err)
		}
	}
	state.Unlock()
	if diff := DiffClasses(r.Snapshot(), Digests(tables)); diff != nil {
		t.Fatalf("incrementally maintained digests diverge from the tables' own: %v", diff)
	}
}

// TestTrackerSuspects: a round that reaches a minority of its peers marks
// every class suspect, which degrades answers touching them and the health
// condition; a clean quorum round clears the marks.
func TestTrackerSuspects(t *testing.T) {
	reached := map[object.SiteID]*Replica{}
	send := func(_ context.Context, peer object.SiteID, m Msg) (Reply, int64, error) {
		if p := reached[peer]; p != nil {
			reply, err := p.Handle("DB1", m)
			return reply, 128, err
		}
		return Reply{}, 0, errors.New("unreachable")
	}
	tables, state := gmap.NewTables(), new(sync.RWMutex)
	tables.Table("Student").MustBind("g:1", "DB1", "o1")
	tables.Table("Course").MustBind("g:2", "DB1", "o2")
	r := NewReplica("DB1", tables, state, nil, send, nil, nil)
	peer := func() *Replica { return NewReplica("DB2", tables.Clone(), new(sync.RWMutex), nil, nil, nil, nil) }
	peers := []object.SiteID{"DB2", "DB3", "DB4"}
	if got := r.SuspectOf([]string{"Student"}); got != nil {
		t.Fatalf("fresh replica has suspects: %v", got)
	}

	reached["DB2"] = peer()
	r.Round(context.Background(), peers)
	if got := r.SuspectOf([]string{"Course", "Dept"}); len(got) != 1 || got[0] != "Course" {
		t.Fatalf("SuspectOf after a minority round = %v, want [Course]", got)
	}
	if h := r.Health()["state"]; !strings.HasPrefix(h, "suspect(Course,Student)") {
		t.Fatalf("suspect replica reports %q", h)
	}

	reached["DB3"] = peer()
	r.Round(context.Background(), peers)
	if h := r.Health()["state"]; h != "ok(round=2, repaired=384B)" {
		t.Fatalf("health after a clean quorum round = %q", h)
	}
}
