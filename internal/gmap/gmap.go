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
//
// A table numbers its entities: a GOid's first Bind gives it the next number,
// so numbers are 0 … Len()-1, dense and stable for the table's life. A number
// is a position in this replica's memory and nothing more — replicas meet the
// same bindings in different orders — so it is never encoded, compared across
// replicas or digested; a Clone keeps its origin's numbers and then numbers on
// its own. The outerjoin indexes its view by them (federation.Materialize).
package gmap

import (
	"fmt"
	"maps"
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

// Entity is a table's handle on one entity: its GOid and its number there.
type Entity struct {
	GOid   object.GOid
	Number int
}

// Index is one site's half of a table, the entity of each object the site
// stores by LOid: the table's own map, read-only, read under the table's lock.
// A step that resolves many objects of one site takes it once (Table.At). A
// site with no binding yet has a nil Index, so take one per step.
type Index map[object.LOid]Entity

// entity is what a table holds per GOid.
type entity struct {
	locs   []Location // sorted by site, replaced on Bind, never edited
	number int
}

// Table is the GOid mapping table of one global class.
type Table struct {
	class    string
	byGOid   map[object.GOid]entity
	sites    map[object.SiteID]Index
	bindings int

	mu      sync.Mutex // guards ordered: concurrent readers build it (Ordered)
	ordered []Entity
}

// NewTable returns an empty mapping table for the named global class.
func NewTable(class string) *Table {
	return &Table{class: class, byGOid: make(map[object.GOid]entity), sites: make(map[object.SiteID]Index)}
}

// At returns the LOid index of the given site.
func (t *Table) At(site object.SiteID) Index { return t.sites[site] }

// Number returns the entity's number in this table.
func (t *Table) Number(goid object.GOid) (int, bool) {
	e, ok := t.byGOid[goid]
	return e.number, ok
}

// Class returns the global class this table maps.
func (t *Table) Class() string { return t.class }

// Bind records that the object loid at site is one of the isomeric objects
// identified by goid. A site contributes at most one object per entity, and
// a local object belongs to exactly one entity.
func (t *Table) Bind(goid object.GOid, site object.SiteID, loid object.LOid) error {
	ix := t.sites[site]
	if prev, dup := ix[loid]; dup {
		return fmt.Errorf("gmap %s: %s@%s already bound to %s", t.class, loid, site, prev.GOid)
	}
	e, known := t.byGOid[goid]
	at, dup := siteIndex(e.locs, site)
	if dup {
		return fmt.Errorf("gmap %s: %s already has %s at site %s", t.class, goid, e.locs[at].LOid, site)
	}
	if !known {
		e.number = len(t.byGOid)
		t.mu.Lock()
		t.ordered = nil
		t.mu.Unlock()
	}
	grown := make([]Location, len(e.locs)+1)
	copy(grown, e.locs[:at])
	grown[at] = Location{Site: site, LOid: loid}
	copy(grown[at+1:], e.locs[at:])
	e.locs = grown
	t.byGOid[goid] = e
	if ix == nil {
		ix = make(Index)
		t.sites[site] = ix
	}
	ix[loid] = Entity{GOid: goid, Number: e.number}
	t.bindings++
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
	e, ok := t.sites[site][loid]
	return ok && e.GOid == goid
}

// GOidOf returns the global identifier of a stored object.
func (t *Table) GOidOf(site object.SiteID, loid object.LOid) (object.GOid, bool) {
	e, ok := t.sites[site][loid]
	return e.GOid, ok
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
	locs := t.byGOid[goid].locs
	if i, ok := siteIndex(locs, site); ok {
		return locs[i].LOid, true
	}
	return "", false
}

// Locations returns every stored isomeric object of the entity, sorted by
// site. The slice is the table's own and read-only (see the package
// comment).
func (t *Table) Locations(goid object.GOid) []Location { return t.byGOid[goid].locs }

// GOids returns every mapped global identifier, sorted.
func (t *Table) GOids() []object.GOid {
	ordered := t.Ordered()
	out := make([]object.GOid, len(ordered))
	for i, e := range ordered {
		out[i] = e.GOid
	}
	return out
}

// Ordered returns the table's entities sorted by GOid, an index of the table
// like its numbering. The slice is the table's own and read-only; the first
// reader after a Bind numbers a new entity builds it afresh.
func (t *Table) Ordered() []Entity {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ordered == nil && len(t.byGOid) > 0 {
		t.ordered = make([]Entity, 0, len(t.byGOid))
		for g, e := range t.byGOid {
			t.ordered = append(t.ordered, Entity{GOid: g, Number: e.number})
		}
		slices.SortFunc(t.ordered, func(a, b Entity) int { return strings.Compare(string(a.GOid), string(b.GOid)) })
	}
	return t.ordered
}

// Len returns the number of entities in the table.
func (t *Table) Len() int { return len(t.byGOid) }

// Bindings returns the number of (site, LOid) bindings in the table; this is
// the table's row count for cost accounting.
func (t *Table) Bindings() int { return t.bindings }

// Clone returns an independent copy, used to replicate the table to a site.
// The locations slices are shared, which their immutability allows: a Bind
// on either table replaces that table's slice and leaves the other's alone.
// The clone keeps every entity's number and orders its entities on its own.
func (t *Table) Clone() *Table {
	cp := &Table{class: t.class, byGOid: maps.Clone(t.byGOid), bindings: t.bindings,
		sites: make(map[object.SiteID]Index, len(t.sites))}
	for site, ix := range t.sites {
		cp.sites[site] = maps.Clone(ix)
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
