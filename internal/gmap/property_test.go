package gmap

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/hetfed/hetfed/internal/object"
)

// randomTable builds a table from a seeded random binding sequence,
// returning the successful bindings.
func randomTable(seed int64) (*Table, []struct {
	GOid object.GOid
	Loc  Location
}) {
	rng := rand.New(rand.NewSource(seed))
	t := NewTable("C")
	var bound []struct {
		GOid object.GOid
		Loc  Location
	}
	for i := 0; i < 60; i++ {
		goid := object.GOid(fmt.Sprintf("g%d", rng.Intn(20)))
		loc := Location{
			Site: object.SiteID(fmt.Sprintf("DB%d", rng.Intn(5))),
			LOid: object.LOid(fmt.Sprintf("o%d", rng.Intn(40))),
		}
		if err := t.Bind(goid, loc.Site, loc.LOid); err == nil {
			bound = append(bound, struct {
				GOid object.GOid
				Loc  Location
			}{goid, loc})
		}
	}
	return t, bound
}

// TestBindLookupInverseProperty: every successful binding is retrievable in
// both directions, and Locations partitions exactly the bound objects.
func TestBindLookupInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		table, bound := randomTable(seed)
		for _, b := range bound {
			g, ok := table.GOidOf(b.Loc.Site, b.Loc.LOid)
			if !ok || g != b.GOid {
				return false
			}
			l, ok := table.LOidAt(b.GOid, b.Loc.Site)
			if !ok || l != b.Loc.LOid {
				return false
			}
		}
		// The per-entity locations are disjoint and cover every binding.
		total := 0
		seen := map[Location]bool{}
		for _, g := range table.GOids() {
			for _, loc := range table.Locations(g) {
				if seen[loc] {
					return false
				}
				seen[loc] = true
				total++
			}
		}
		return total == table.Bindings() && total == len(bound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCloneEquivalenceProperty: a clone answers every lookup identically.
func TestCloneEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		table, bound := randomTable(seed)
		cp := table.Clone()
		if cp.Len() != table.Len() || cp.Bindings() != table.Bindings() {
			return false
		}
		for _, b := range bound {
			g1, ok1 := table.GOidOf(b.Loc.Site, b.Loc.LOid)
			g2, ok2 := cp.GOidOf(b.Loc.Site, b.Loc.LOid)
			if ok1 != ok2 || g1 != g2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// naiveTable is the model the table is checked against: the accepted
// bindings in the order they were accepted, and nothing else. Every answer is
// worked out by scanning them.
type naiveTable struct {
	bindings []naiveBinding
	entities []object.GOid // in order of first binding: an entity's number is its position
}

type naiveBinding struct {
	goid object.GOid
	loc  Location
}

func (m *naiveTable) clone() *naiveTable {
	return &naiveTable{bindings: slices.Clone(m.bindings), entities: slices.Clone(m.entities)}
}

func (m *naiveTable) goidOf(site object.SiteID, loid object.LOid) (object.GOid, bool) {
	for _, b := range m.bindings {
		if b.loc == (Location{site, loid}) {
			return b.goid, true
		}
	}
	return "", false
}

func (m *naiveTable) loidAt(goid object.GOid, site object.SiteID) (object.LOid, bool) {
	for _, b := range m.bindings {
		if b.goid == goid && b.loc.Site == site {
			return b.loc.LOid, true
		}
	}
	return "", false
}

func (m *naiveTable) locations(goid object.GOid) []Location {
	var out []Location
	for _, b := range m.bindings {
		if b.goid == goid {
			out = append(out, b.loc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

func (m *naiveTable) number(goid object.GOid) (int, bool) {
	n := slices.Index(m.entities, goid)
	return n, n >= 0
}

// bind applies the table's two rules — a local object belongs to one entity,
// an entity has one object per site — and reports whether the binding stands.
func (m *naiveTable) bind(goid object.GOid, site object.SiteID, loid object.LOid) bool {
	if _, taken := m.goidOf(site, loid); taken {
		return false
	}
	if _, has := m.loidAt(goid, site); has {
		return false
	}
	m.bindings = append(m.bindings, naiveBinding{goid, Location{site, loid}})
	if !slices.Contains(m.entities, goid) {
		m.entities = append(m.entities, goid)
	}
	return true
}

// The model check's universe is small enough to ask every question after
// every step.
var (
	modelGOids = []object.GOid{"g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "g9"}
	modelSites = []object.SiteID{"DB0", "DB1", "DB2"}
	modelLOids = []object.LOid{"o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7"}
)

// agree compares the table with the model call for call.
func agree(t *testing.T, when string, table *Table, m *naiveTable) {
	t.Helper()
	if table.Len() != len(m.entities) || table.Bindings() != len(m.bindings) {
		t.Fatalf("%s: Len %d, Bindings %d; the model holds %d entities, %d bindings",
			when, table.Len(), table.Bindings(), len(m.entities), len(m.bindings))
	}
	sorted := slices.Clone(m.entities)
	slices.Sort(sorted)
	if got := table.GOids(); !slices.Equal(got, sorted) {
		t.Fatalf("%s: GOids = %v, the model's entities are %v", when, got, m.entities)
	}
	for _, g := range modelGOids {
		if got, want := table.Locations(g), m.locations(g); !slices.Equal(got, want) {
			t.Fatalf("%s: Locations(%s) = %v, want %v", when, g, got, want)
		}
		// Dense, and stable: the model never renumbers, so agreeing with it
		// after every step is agreeing with every earlier answer.
		got, ok := table.Number(g)
		want, known := m.number(g)
		if ok != known || (ok && got != want) {
			t.Fatalf("%s: Number(%s) = %d, %v; want %d, %v", when, g, got, ok, want, known)
		}
		if ok && (got < 0 || got >= table.Len()) {
			t.Fatalf("%s: Number(%s) = %d outside 0…%d", when, g, got, table.Len()-1)
		}
		for _, s := range modelSites {
			gotL, ok := table.LOidAt(g, s)
			wantL, has := m.loidAt(g, s)
			if ok != has || gotL != wantL {
				t.Fatalf("%s: LOidAt(%s, %s) = %q, %v; want %q, %v", when, g, s, gotL, ok, wantL, has)
			}
		}
	}
	for _, s := range modelSites {
		index := table.At(s)
		for _, l := range modelLOids {
			got, ok := table.GOidOf(s, l)
			want, has := m.goidOf(s, l)
			if ok != has || got != want {
				t.Fatalf("%s: GOidOf(%s, %s) = %q, %v; want %q, %v", when, s, l, got, ok, want, has)
			}
			e, indexed := index[l]
			if indexed != has || e.GOid != want {
				t.Fatalf("%s: At(%s)[%s] = %+v, %v; want %q, %v", when, s, l, e, indexed, want, has)
			}
			if n, _ := m.number(want); indexed && e.Number != n {
				t.Fatalf("%s: At(%s)[%s] is number %d, the entity's is %d", when, s, l, e.Number, n)
			}
			for _, g := range modelGOids {
				if table.Bound(g, s, l) != (has && want == g) {
					t.Fatalf("%s: Bound(%s, %s, %s) = %v", when, g, s, l, table.Bound(g, s, l))
				}
			}
		}
	}
}

// TestTableMatchesNaiveModel drives a table and a naive list of bindings
// through the same random sequence — fresh bindings, exact duplicates, a
// second LOid for an entity at a site it is already stored at, a second GOid
// for a bound object, a Clone with binds on both sides afterwards — and
// compares every accessor, the per-site index and the numbering after every
// step. A rejected Bind must leave no trace: no binding, no number, no hole.
func TestTableMatchesNaiveModel(t *testing.T) {
	type pair struct {
		name  string
		table *Table
		model *naiveTable
	}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(n int) int { return rng.Intn(n) }
		sides := []pair{{"origin", NewTable("C"), &naiveTable{}}}
		kinds := map[string]int{}
		cloneAt := 40 + pick(60)
		for step := 0; step < 160; step++ {
			if step == cloneAt {
				sides = append(sides, pair{"clone", sides[0].table.Clone(), sides[0].model.clone()})
			}
			side := sides[pick(len(sides))]
			goid, site, loid := modelGOids[pick(len(modelGOids))], modelSites[pick(len(modelSites))], modelLOids[pick(len(modelLOids))]
			kind := "fresh"
			if n := len(side.model.bindings); n > 0 && pick(2) == 0 {
				// Start from a binding that stands and vary one part, or none.
				b := side.model.bindings[pick(n)]
				switch pick(3) {
				case 0:
					kind, goid, site, loid = "exact duplicate", b.goid, b.loc.Site, b.loc.LOid
				case 1:
					kind, goid, site = "second LOid at the site", b.goid, b.loc.Site
				case 2:
					kind, site, loid = "second GOid for the object", b.loc.Site, b.loc.LOid
				}
			}
			when := fmt.Sprintf("seed %d step %d, %s: %s Bind(%s, %s, %s)", seed, step, side.name, kind, goid, site, loid)
			want := side.model.bind(goid, site, loid)
			if err := side.table.Bind(goid, site, loid); (err == nil) != want {
				t.Fatalf("%s: err = %v, the model accepts: %v", when, err, want)
			}
			if !want {
				kinds[kind]++
			}
			// Both sides are compared after every step: a bind on one must
			// not show through on the other.
			for _, s := range sides {
				agree(t, when+", reading "+s.name, s.table, s.model)
			}
		}
		if kinds["exact duplicate"] == 0 || kinds["second LOid at the site"] == 0 || kinds["second GOid for the object"] == 0 {
			t.Errorf("seed %d rejected %v: some conflict kind was never tried", seed, kinds)
		}
	}
}
