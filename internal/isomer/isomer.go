// Package isomer identifies isomeric objects — objects stored in different
// component databases that represent the same real-world entity — and builds
// the GOid mapping tables the query execution strategies depend on.
//
// This is the substrate behind reference [5] of the paper ("Identifying
// Object Isomerism in Multiple Databases"): the full strategy there matches
// entities through key equivalence; we implement exactly that. Objects of
// constituent classes of the same global class are isomeric when their
// entity-key attribute values are equal. Objects whose key is (partially)
// null match nothing and receive singleton entities.
package isomer

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/store"
)

// Matcher maintains the entity partition incrementally: it owns the GOid
// mapping tables plus a key index, so newly inserted objects can be matched
// against existing entities without rescanning the federation. It is the
// mapping authority the replicated-table maintenance mechanism (paper
// Section 4.1) distributes from.
type Matcher struct {
	global *schema.Global
	tables *gmap.Tables
	byKey  map[string]map[string]object.GOid // class -> key -> GOid
	seq    map[string]int
}

// NewMatcher returns an empty matcher for the global schema.
func NewMatcher(g *schema.Global) *Matcher {
	return &Matcher{
		global: g,
		tables: gmap.NewTables(),
		byKey:  make(map[string]map[string]object.GOid),
		seq:    make(map[string]int),
	}
}

// Tables exposes the live mapping tables (clone before mutating elsewhere).
func (m *Matcher) Tables() *gmap.Tables { return m.tables }

// Add matches a newly stored object against the existing entities of its
// global class and binds it, returning its GOid: Assign, then the table
// write. An authority that logs its bindings (the TCP coordinator) calls
// Assign and binds through its own log-first path instead.
func (m *Matcher) Add(site object.SiteID, localClass string, o *object.Object) (object.GOid, error) {
	class, goid, err := m.Assign(site, localClass, o)
	if err != nil {
		return "", err
	}
	if err := m.tables.Table(class).Bind(goid, site, o.LOid); err != nil {
		return "", fmt.Errorf("isomer: %w", err)
	}
	return goid, nil
}

// Assign picks the GOid a newly stored object belongs under — the entity
// whose key equals the object's, or a freshly minted one; objects with no
// usable key become singleton entities — and returns it with the object's
// global class. It writes no table: the caller binds.
func (m *Matcher) Assign(site object.SiteID, localClass string, o *object.Object) (class string, goid object.GOid, err error) {
	gc := m.global.GlobalFor(site, localClass)
	if gc == nil {
		return "", "", fmt.Errorf("isomer: class %s@%s is not integrated", localClass, site)
	}
	key, ok := entityKey(gc, o)
	if !ok {
		return gc.Name, m.next(gc.Name), nil
	}
	classKeys := m.byKey[gc.Name]
	if classKeys == nil {
		classKeys = make(map[string]object.GOid)
		m.byKey[gc.Name] = classKeys
	}
	goid, seen := classKeys[key]
	if !seen {
		goid = m.next(gc.Name)
		classKeys[key] = goid
	}
	return gc.Name, goid, nil
}

func (m *Matcher) next(class string) object.GOid {
	t := m.tables.Table(class)
	for {
		m.seq[class]++
		g := object.GOid(fmt.Sprintf("g%s:%d", class, m.seq[class]))
		if len(t.Locations(g)) == 0 {
			return g
		}
	}
}

// Load adds every stored object of every constituent class, scanning sites
// alphabetically and extents in insertion order (deterministic GOids).
func (m *Matcher) Load(dbs map[object.SiteID]*store.Database) error {
	for _, className := range m.global.ClassNames() {
		gc := m.global.Class(className)
		for _, site := range gc.Sites() {
			db := dbs[site]
			if db == nil {
				return fmt.Errorf("identify %s: no database for site %s", className, site)
			}
			localName := gc.Constituents[site]
			ext := db.Extent(localName)
			if ext == nil {
				return fmt.Errorf("identify %s: site %s lost class %s", className, site, localName)
			}
			var addErr error
			ext.Scan(func(o *object.Object) bool {
				_, addErr = m.Add(site, localName, o)
				return addErr == nil
			})
			if addErr != nil {
				return fmt.Errorf("identify %s: %w", className, addErr)
			}
		}
	}
	return nil
}

// Identify scans every constituent class of every global class in g and
// groups objects into entities by key equality, assigning one GOid per
// entity. GOids are deterministic: g<class>:<n> in order of first
// appearance, scanning sites alphabetically and extents in insertion order.
func Identify(g *schema.Global, dbs map[object.SiteID]*store.Database) (*gmap.Tables, error) {
	m := NewMatcher(g)
	if err := m.Load(dbs); err != nil {
		return nil, err
	}
	// Ensure every global class has a table, even when empty.
	for _, className := range g.ClassNames() {
		m.tables.Table(className)
	}
	return m.tables, nil
}

// entityKey encodes the object's entity-key attribute values. ok is false
// when the class declares no key or any key attribute is null for the
// object (such objects cannot be matched).
func entityKey(gc *schema.GlobalClass, o *object.Object) (string, bool) {
	if len(gc.Key) == 0 {
		return "", false
	}
	parts := make([]string, 0, len(gc.Key))
	for _, k := range gc.Key {
		v := o.Attr(k)
		if v.IsNull() || v.IsRef() {
			return "", false
		}
		parts = append(parts, v.Kind().String()+"="+v.String())
	}
	return strings.Join(parts, "\x1f"), true
}

// CountIsomeric returns, per global class, how many entities have more than
// one stored isomeric object — the R_iso statistic of the paper's Table 2.
func CountIsomeric(tables *gmap.Tables) map[string]int {
	out := make(map[string]int)
	for _, class := range tables.Classes() {
		t := tables.Table(class)
		n := 0
		for _, g := range t.GOids() {
			if len(t.Locations(g)) > 1 {
				n++
			}
		}
		out[class] = n
	}
	return out
}

// Validate cross-checks a mapping table group against the databases: every
// binding must point at a stored object of the right constituent class.
func Validate(g *schema.Global, dbs map[object.SiteID]*store.Database, tables *gmap.Tables) error {
	for _, class := range tables.Classes() {
		gc := g.Class(class)
		if gc == nil {
			return fmt.Errorf("validate: mapping table for unknown global class %q", class)
		}
		t := tables.Table(class)
		goids := t.GOids()
		sort.Slice(goids, func(i, j int) bool { return goids[i] < goids[j] })
		for _, goid := range goids {
			for _, loc := range t.Locations(goid) {
				db := dbs[loc.Site]
				if db == nil {
					return fmt.Errorf("validate %s: binding %s references unknown site %s", class, goid, loc.Site)
				}
				localName, ok := gc.Constituents[loc.Site]
				if !ok {
					return fmt.Errorf("validate %s: site %s holds no constituent class", class, loc.Site)
				}
				o, ok := db.Deref(loc.LOid)
				if !ok {
					return fmt.Errorf("validate %s: %s binds missing object %s@%s", class, goid, loc.LOid, loc.Site)
				}
				if o.Class != localName {
					return fmt.Errorf("validate %s: %s binds %s@%s of class %s, want %s",
						class, goid, loc.LOid, loc.Site, o.Class, localName)
				}
			}
		}
	}
	return nil
}

// Adopt primes the matcher from existing mapping tables and the stored
// objects they bind: the key index is rebuilt from the objects' entity
// keys, and freshly generated GOids skip names the tables already use. The
// matcher takes ownership of the tables (clone first to keep the original
// immutable).
func (m *Matcher) Adopt(dbs map[object.SiteID]*store.Database, tables *gmap.Tables) error {
	m.tables = tables
	for _, class := range tables.Classes() {
		gc := m.global.Class(class)
		if gc == nil {
			return fmt.Errorf("isomer: adopt: unknown global class %q", class)
		}
		t := tables.Table(class)
		for _, goid := range t.GOids() {
			for _, loc := range t.Locations(goid) {
				db := dbs[loc.Site]
				if db == nil {
					return fmt.Errorf("isomer: adopt: no database for site %s", loc.Site)
				}
				o, ok := db.Deref(loc.LOid)
				if !ok {
					return fmt.Errorf("isomer: adopt: %s binds missing object %s@%s", goid, loc.LOid, loc.Site)
				}
				key, ok := entityKey(gc, o)
				if !ok {
					continue
				}
				classKeys := m.byKey[class]
				if classKeys == nil {
					classKeys = make(map[string]object.GOid)
					m.byKey[class] = classKeys
				}
				if prev, seen := classKeys[key]; seen && prev != goid {
					return fmt.Errorf("isomer: adopt: key of %s@%s maps to both %s and %s",
						loc.LOid, loc.Site, prev, goid)
				}
				classKeys[key] = goid
			}
		}
	}
	return nil
}
