package gmap

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

func figure5Student() *Table {
	t := NewTable("Student")
	t.MustBind("gs1", "DB1", "s1")
	t.MustBind("gs1", "DB2", "s2'")
	t.MustBind("gs2", "DB1", "s2")
	t.MustBind("gs3", "DB1", "s3")
	t.MustBind("gs4", "DB2", "s1'")
	t.MustBind("gs5", "DB2", "s3'")
	return t
}

func TestBindAndLookups(t *testing.T) {
	tab := figure5Student()
	if tab.Class() != "Student" {
		t.Error("Class wrong")
	}
	if g, ok := tab.GOidOf("DB2", "s2'"); !ok || g != "gs1" {
		t.Errorf("GOidOf = %v %v", g, ok)
	}
	if _, ok := tab.GOidOf("DB2", "nope"); ok {
		t.Error("GOidOf unknown succeeded")
	}
	if l, ok := tab.LOidAt("gs1", "DB1"); !ok || l != "s1" {
		t.Errorf("LOidAt = %v %v", l, ok)
	}
	if _, ok := tab.LOidAt("gs2", "DB2"); ok {
		t.Error("LOidAt for absent site succeeded")
	}
	if tab.Len() != 5 || tab.Bindings() != 6 {
		t.Errorf("Len/Bindings = %d/%d", tab.Len(), tab.Bindings())
	}
}

// TestBound pins the exact-duplicate probe replicas and WAL replay use to
// apply binds idempotently: true only for a binding that exists verbatim.
func TestBound(t *testing.T) {
	tab := figure5Student()
	if !tab.Bound("gs1", "DB2", "s2'") {
		t.Error("existing binding not Bound")
	}
	if tab.Bound("gs9", "DB2", "s2'") {
		t.Error("same location, different GOid reported Bound")
	}
	if tab.Bound("gs1", "DB2", "nope") {
		t.Error("unknown LOid reported Bound")
	}
	if tab.Bound("gs1", "DB3", "s2'") {
		t.Error("unknown site reported Bound")
	}
}

func TestBindErrors(t *testing.T) {
	tab := figure5Student()
	if err := tab.Bind("gs9", "DB1", "s1"); err == nil {
		t.Error("rebinding local object accepted")
	}
	if err := tab.Bind("gs1", "DB1", "s99"); err == nil {
		t.Error("second object per site per entity accepted")
	}
}

func TestLocationsSorted(t *testing.T) {
	tab := NewTable("T")
	tab.MustBind("g1", "DB3", "c")
	tab.MustBind("g1", "DB1", "a")
	tab.MustBind("g1", "DB2", "b")
	got := tab.Locations("g1")
	want := []Location{{"DB1", "a"}, {"DB2", "b"}, {"DB3", "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Locations = %v", got)
	}
	if tab.Locations("ghost") != nil && len(tab.Locations("ghost")) != 0 {
		t.Error("Locations of unknown GOid should be empty")
	}
}

func TestGOidsSorted(t *testing.T) {
	tab := figure5Student()
	got := tab.GOids()
	want := []object.GOid{"gs1", "gs2", "gs3", "gs4", "gs5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GOids = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := figure5Student()
	cp := tab.Clone()
	cp.MustBind("gs9", "DB3", "x")
	if _, ok := tab.GOidOf("DB3", "x"); ok {
		t.Error("Clone shares state")
	}
	if g, ok := cp.GOidOf("DB1", "s1"); !ok || g != "gs1" {
		t.Error("Clone lost bindings")
	}
}

func TestTablesGroup(t *testing.T) {
	ts := NewTables()
	if ts.Lookup("Student") != nil || len(ts.Classes()) != 0 {
		t.Error("Lookup on an empty group found a table, or added one")
	}
	st := ts.Table("Student")
	st.MustBind("gs1", "DB1", "s1")
	if ts.Lookup("Student") != st {
		t.Error("Lookup after Table")
	}
	if ts.Table("Student") != st {
		t.Error("Table not idempotent")
	}
	ts.Table("Teacher")
	if got := ts.Classes(); !reflect.DeepEqual(got, []string{"Student", "Teacher"}) {
		t.Errorf("Classes = %v", got)
	}
	cp := ts.Clone()
	cp.Table("Student").MustBind("gs2", "DB1", "s2")
	if _, ok := ts.Table("Student").GOidOf("DB1", "s2"); ok {
		t.Error("Tables.Clone shares state")
	}
}

// TestLocationsAreNeverEdited: a locations slice handed out stays what it
// was — a later Bind of the same entity installs a new slice, in the table
// that bound and not in its clone.
func TestLocationsAreNeverEdited(t *testing.T) {
	tab := figure5Student()
	held := tab.Locations("gs1")
	before := append([]Location(nil), held...)
	cp := tab.Clone()

	tab.MustBind("gs1", "DB0", "s0") // sorts before both held entries
	tab.MustBind("gs1", "DB3", "s3")
	if !reflect.DeepEqual(held, before) {
		t.Errorf("a held locations slice changed under Bind: %v, was %v", held, before)
	}
	if got := cp.Locations("gs1"); !reflect.DeepEqual(got, before) {
		t.Errorf("Bind on the original reached its clone: %v", got)
	}
	want := []Location{{"DB0", "s0"}, {"DB1", "s1"}, {"DB2", "s2'"}, {"DB3", "s3"}}
	if got := tab.Locations("gs1"); !reflect.DeepEqual(got, want) {
		t.Errorf("Locations after Bind = %v, want %v", got, want)
	}
	if l, ok := tab.LOidAt("gs1", "DB3"); !ok || l != "s3" {
		t.Errorf("LOidAt(gs1, DB3) = %q, %v", l, ok)
	}
	if _, ok := cp.LOidAt("gs1", "DB3"); ok {
		t.Error("the clone sees a binding made after it was taken")
	}
}

// BenchmarkGmap times the three table operations a query and an insert
// repeat: resolving a stored object's GOid, listing an entity's locations,
// and binding (1000 entities at two sites each into a table started afresh
// whenever it is full).
func BenchmarkGmap(b *testing.B) {
	const entities = 1000
	type binding struct {
		goid object.GOid
		loc  Location
	}
	bindings := make([]binding, 0, 2*entities)
	for i := 0; i < entities; i++ {
		g := object.GOid(fmt.Sprintf("g%04d", i))
		for _, site := range []object.SiteID{"DB2", "DB1"} {
			bindings = append(bindings, binding{g, Location{site, object.LOid(fmt.Sprintf("o%04d@%s", i, site))}})
		}
	}
	build := func() *Table {
		t := NewTable("C")
		for _, bd := range bindings {
			t.MustBind(bd.goid, bd.loc.Site, bd.loc.LOid)
		}
		return t
	}
	tab := build()
	var (
		sinkLocs []Location
		sinkGOid object.GOid
	)
	b.Run("Locations", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkLocs = tab.Locations(bindings[i%len(bindings)].goid)
		}
	})
	b.Run("GOidOf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loc := bindings[i%len(bindings)].loc
			sinkGOid, _ = tab.GOidOf(loc.Site, loc.LOid)
		}
	})
	b.Run("Bind", func(b *testing.B) {
		b.ReportAllocs()
		var t *Table
		for i := 0; i < b.N; i++ {
			bd := bindings[i%len(bindings)]
			if i%len(bindings) == 0 {
				t = NewTable("C")
			}
			t.MustBind(bd.goid, bd.loc.Site, bd.loc.LOid)
		}
	})
	_, _ = sinkLocs, sinkGOid
}

// TestTableOrderFollowsBinds: a table's GOid order is an index of the table.
// An entity bound after the order was read appears in its GOid position with
// its own number, a Clone orders apart from its origin, and concurrent
// readers share the one order the first of them builds.
func TestTableOrderFollowsBinds(t *testing.T) {
	wantOrder := func(when string, tab *Table, want ...object.GOid) {
		t.Helper()
		got := tab.Ordered()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entities in order, want %d", when, len(got), len(want))
		}
		for i, e := range got {
			if n, ok := tab.Number(e.GOid); e.GOid != want[i] || !ok || n != e.Number {
				t.Errorf("%s: entry %d is %s #%d, want %s #%d", when, i, e.GOid, e.Number, want[i], n)
			}
		}
		if goids := tab.GOids(); !reflect.DeepEqual(goids, want) {
			t.Errorf("%s: GOids = %v, want %v", when, goids, want)
		}
	}
	tab := figure5Student()
	wantOrder("loaded", tab, "gs1", "gs2", "gs3", "gs4", "gs5")
	tab.MustBind("gs25", "DB1", "s25")
	wantOrder("after a new entity", tab, "gs1", "gs2", "gs25", "gs3", "gs4", "gs5")
	tab.MustBind("gs25", "DB2", "s25'")
	wantOrder("after a second location", tab, "gs1", "gs2", "gs25", "gs3", "gs4", "gs5")

	cp := tab.Clone()
	cp.MustBind("gs0", "DB1", "s0")
	tab.MustBind("gs9", "DB1", "s9")
	wantOrder("the origin after both bound", tab, "gs1", "gs2", "gs25", "gs3", "gs4", "gs5", "gs9")
	wantOrder("the clone after both bound", cp, "gs0", "gs1", "gs2", "gs25", "gs3", "gs4", "gs5")

	tab.MustBind("gs6", "DB2", "s6'")
	const readers = 8
	firsts := make([]*Entity, readers)
	var wg sync.WaitGroup
	for i := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			firsts[i] = &tab.Ordered()[0]
		}()
	}
	wg.Wait()
	for i, f := range firsts {
		if f != firsts[0] {
			t.Errorf("reader %d read an order of its own: the order was built more than once", i)
		}
	}
	wantOrder("read concurrently", tab, "gs1", "gs2", "gs25", "gs3", "gs4", "gs5", "gs6", "gs9")
}
