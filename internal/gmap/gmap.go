// Package gmap implements GOid mapping tables: for each global class, the
// mapping between global object identifiers and the (site, LOid) pairs of
// the isomeric objects representing the same real-world entity.
//
// In the paper's system the mapping tables are replicated at every site;
// Tables.Clone produces the replication snapshot a site works against.
//
// An entity's locations are one slice, sorted by site, that is never edited
// once it is in a table: Bind installs a new slice in its place. Locations
// hands that slice out as it is — no copy, no sort — so callers must treat
// it as read-only, may keep it for as long as they like (a lookup cache
// does), and a Clone shares it with the table it was cloned from.
package gmap

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/hetfed/hetfed/internal/object"
)

// Location identifies one stored object: a site plus its local identifier.
type Location struct {
	Site object.SiteID
	LOid object.LOid
}

// Table is the GOid mapping table of one global class.
type Table struct {
	class   string
	byGOid  map[object.GOid][]Location // sorted by site, replaced on Bind, never edited
	byLocal map[Location]object.GOid
}

// NewTable returns an empty mapping table for the named global class.
func NewTable(class string) *Table {
	return &Table{
		class:   class,
		byGOid:  make(map[object.GOid][]Location),
		byLocal: make(map[Location]object.GOid),
	}
}

// Class returns the global class this table maps.
func (t *Table) Class() string { return t.class }

// Bind records that the object loid at site is one of the isomeric objects
// identified by goid. A site contributes at most one object per entity, and
// a local object belongs to exactly one entity.
func (t *Table) Bind(goid object.GOid, site object.SiteID, loid object.LOid) error {
	loc := Location{Site: site, LOid: loid}
	if prev, dup := t.byLocal[loc]; dup {
		return fmt.Errorf("gmap %s: %s@%s already bound to %s", t.class, loid, site, prev)
	}
	locs := t.byGOid[goid]
	at, dup := siteIndex(locs, site)
	if dup {
		return fmt.Errorf("gmap %s: %s already has %s at site %s", t.class, goid, locs[at].LOid, site)
	}
	grown := make([]Location, len(locs)+1)
	copy(grown, locs[:at])
	grown[at] = loc
	copy(grown[at+1:], locs[at:])
	t.byGOid[goid] = grown
	t.byLocal[loc] = goid
	return nil
}

// siteIndex returns the position of site's entry in a site-sorted locations
// slice, or the position it would be inserted at and false.
func siteIndex(locs []Location, site object.SiteID) (int, bool) {
	return slices.BinarySearchFunc(locs, site, func(l Location, s object.SiteID) int {
		return strings.Compare(string(l.Site), string(s))
	})
}

// MustBind is Bind that panics on error; intended for fixtures.
func (t *Table) MustBind(goid object.GOid, site object.SiteID, loid object.LOid) {
	if err := t.Bind(goid, site, loid); err != nil {
		panic(err)
	}
}

// Bound reports whether the exact binding (goid, site, loid) is already
// present. It is the idempotence check that replayed bind deltas (durable-
// log recovery, replica repair) rely on: an exact duplicate is a harmless
// re-delivery, while Bind's duplicate errors flag genuine conflicts.
func (t *Table) Bound(goid object.GOid, site object.SiteID, loid object.LOid) bool {
	g, ok := t.byLocal[Location{Site: site, LOid: loid}]
	return ok && g == goid
}

// GOidOf returns the global identifier of a stored object.
func (t *Table) GOidOf(site object.SiteID, loid object.LOid) (object.GOid, bool) {
	g, ok := t.byLocal[Location{Site: site, LOid: loid}]
	return g, ok
}

// Unbound returns the identity a stored object of the table's class goes by
// while no binding names it — between a store request and its bind
// broadcast, or for good if no matcher ever adopts it: a synthetic singleton
// GOid, "!" followed by class, site and LOid, that no bound entity uses. Every
// strategy names such an object through here, so the centralized and the
// localized answers to one query agree on it.
func (t *Table) Unbound(site object.SiteID, loid object.LOid) object.GOid {
	return object.GOid("!" + t.class + ":" + string(site) + ":" + string(loid))
}

// LOidAt returns the LOid of the entity's isomeric object at the given
// site, if the entity is stored there.
func (t *Table) LOidAt(goid object.GOid, site object.SiteID) (object.LOid, bool) {
	locs := t.byGOid[goid]
	if i, ok := siteIndex(locs, site); ok {
		return locs[i].LOid, true
	}
	return "", false
}

// Locations returns every stored isomeric object of the entity, sorted by
// site. The slice is the table's own and read-only (see the package
// comment).
func (t *Table) Locations(goid object.GOid) []Location { return t.byGOid[goid] }

// IsomericsOf returns the isomeric objects of the given stored object at
// other sites (the candidates for assistant objects), sorted by site.
func (t *Table) IsomericsOf(site object.SiteID, loid object.LOid) []Location {
	goid, ok := t.GOidOf(site, loid)
	if !ok {
		return nil
	}
	all := t.Locations(goid)
	out := make([]Location, 0, len(all))
	for _, loc := range all {
		if loc.Site != site {
			out = append(out, loc)
		}
	}
	return out
}

// GOids returns every mapped global identifier, sorted.
func (t *Table) GOids() []object.GOid {
	out := make([]object.GOid, 0, len(t.byGOid))
	for g := range t.byGOid {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of entities in the table.
func (t *Table) Len() int { return len(t.byGOid) }

// Bindings returns the number of (site, LOid) bindings in the table; this is
// the table's row count for cost accounting.
func (t *Table) Bindings() int { return len(t.byLocal) }

// Clone returns an independent copy, used to replicate the table to a site.
// The locations slices are shared, which their immutability allows: a Bind
// on either table replaces that table's slice and leaves the other's alone.
func (t *Table) Clone() *Table {
	cp := &Table{
		class:   t.class,
		byGOid:  make(map[object.GOid][]Location, len(t.byGOid)),
		byLocal: make(map[Location]object.GOid, len(t.byLocal)),
	}
	for g, locs := range t.byGOid {
		cp.byGOid[g] = locs
		for _, loc := range locs {
			cp.byLocal[loc] = g
		}
	}
	return cp
}

// Tables groups the mapping tables of all global classes.
//
// The class→table map itself is guarded by a mutex so concurrent queries
// that touch a class never seen before (lazy creation in Table) do not
// race. Individual Tables are NOT internally locked: mutation (Bind) is
// a setup/replication-time operation that callers must serialize against
// query reads (the TCP server does so with its state lock).
type Tables struct {
	mu      sync.RWMutex
	byClass map[string]*Table
}

// NewTables returns an empty table group.
func NewTables() *Tables {
	return &Tables{byClass: make(map[string]*Table)}
}

// Table returns the table of the named global class, creating it on first
// use. Safe for concurrent callers.
func (ts *Tables) Table(class string) *Table {
	ts.mu.RLock()
	t := ts.byClass[class]
	ts.mu.RUnlock()
	if t != nil {
		return t
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t = ts.byClass[class]; t == nil {
		t = NewTable(class)
		ts.byClass[class] = t
	}
	return t
}

// Has reports whether a table exists for the named global class.
func (ts *Tables) Has(class string) bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	_, ok := ts.byClass[class]
	return ok
}

// Classes returns the mapped global class names, sorted.
func (ts *Tables) Classes() []string {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]string, 0, len(ts.byClass))
	for c := range ts.byClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies all tables (a full replication snapshot).
func (ts *Tables) Clone() *Tables {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	cp := NewTables()
	for c, t := range ts.byClass {
		cp.byClass[c] = t.Clone()
	}
	return cp
}
