// Package store implements the object storage of one component database:
// one extent per class, one LOid index over them all, deterministic scan
// order and reference dereferencing across the class composition hierarchy.
//
// The store itself is cost-free; the federation layer charges simulated disk
// and CPU time for the operations it performs, using the byte sizes the
// store reports.
//
// The store is insert-only and never edits an object after Insert. Readers
// lean on that: Scan, All, Get and Deref hand out the stored objects
// themselves, and a retrieve reply (federation.ClassObjects) keeps pointing
// at them after the lock that guarded the scan is released, while the reply
// is encoded. An update or delete operation would have to replace the object,
// not change it.
//
// One map indexes a database by LOid, and its value carries the object's
// position: Insert numbers objects densely (0 … Len()−1) and never reuses or
// moves a position, since nothing is removed. Positions are replica-local —
// never persisted, shipped or logged — and let a per-query buffer
// (eval.Cached) be a bitset over them, not a second LOid map.
package store

import (
	"fmt"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
)

// Extent holds the objects of one class in one component database.
type Extent struct {
	class   *schema.Class
	db      *Database // its LOid index answers Get
	order   []located // insertion order; appended to, never edited
	indexes map[string]*Index
}

// located is a stored object and its database-wide position.
type located struct {
	obj *object.Object
	pos int
}

// Class returns the extent's class descriptor.
func (e *Extent) Class() *schema.Class { return e.class }

// Len returns the number of stored objects.
func (e *Extent) Len() int { return len(e.order) }

// Get returns the object of this extent with the given LOid, or nil.
func (e *Extent) Get(id object.LOid) *object.Object {
	if l, ok := e.db.byLOid[id]; ok && l.obj.Class == e.class.Name {
		return l.obj
	}
	return nil
}

// Scan calls fn for every object in insertion order; a false return stops
// the scan early.
func (e *Extent) Scan(fn func(*object.Object) bool) {
	for _, l := range e.order {
		if !fn(l.obj) {
			return
		}
	}
}

// ScanPos is Scan handing out each object's database-wide position with it.
func (e *Extent) ScanPos(fn func(o *object.Object, pos int) bool) {
	for _, l := range e.order {
		if !fn(l.obj, l.pos) {
			return
		}
	}
}

// All returns the objects in insertion order. The objects are shared, the
// slice is fresh.
func (e *Extent) All() []*object.Object {
	out := make([]*object.Object, len(e.order))
	for i, l := range e.order {
		out[i] = l.obj
	}
	return out
}

// Database is one component database: a schema plus one extent per class and
// a database-wide LOid index used to dereference complex attribute values.
type Database struct {
	site    object.SiteID
	schema  *schema.Schema
	extents map[string]*Extent
	byLOid  map[object.LOid]located // the one LOid index; positions are 0 … len−1
	engine  StorageEngine           // nil: in memory only
}

// NewDatabase returns an empty database over the given schema. The schema
// must validate.
func NewDatabase(s *schema.Schema) (*Database, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("new database: %w", err)
	}
	db := &Database{
		site:    s.Site,
		schema:  s,
		extents: make(map[string]*Extent, len(s.ClassNames())),
		byLOid:  make(map[object.LOid]located),
	}
	for _, name := range s.ClassNames() {
		db.extents[name] = &Extent{class: s.Class(name), db: db}
	}
	return db, nil
}

// MustNewDatabase is NewDatabase that panics on error; intended for fixtures.
func MustNewDatabase(s *schema.Schema) *Database {
	db, err := NewDatabase(s)
	if err != nil {
		panic(err)
	}
	return db
}

// WithEngine attaches a storage engine: from here on every mutation is
// logged to the engine before being applied. Attach AFTER recovery replay
// (replay applies mutations without re-logging them) and before serving.
// Returns db for chaining.
func (db *Database) WithEngine(e StorageEngine) *Database {
	db.engine = e
	return db
}

// Site returns the owning site.
func (db *Database) Site() object.SiteID { return db.site }

// Schema returns the component schema.
func (db *Database) Schema() *schema.Schema { return db.schema }

// Extent returns the extent of the named class, or nil.
func (db *Database) Extent(class string) *Extent { return db.extents[class] }

// Insert validates and stores an object. The object's class must exist, its
// LOid must be unique database-wide, and every attribute must be defined by
// the class with a matching kind. Missing attributes are simply absent.
func (db *Database) Insert(o *object.Object) error {
	e := db.extents[o.Class]
	if e == nil {
		return fmt.Errorf("insert %s: site %s has no class %q", o.LOid, db.site, o.Class)
	}
	if o.LOid == "" {
		return fmt.Errorf("insert into %s@%s: empty LOid", o.Class, db.site)
	}
	if _, dup := db.byLOid[o.LOid]; dup {
		return fmt.Errorf("insert %s into %s@%s: duplicate LOid", o.LOid, o.Class, db.site)
	}
	for i := 0; i < o.Len(); i++ {
		name, v := o.At(i)
		a, ok := e.class.Attr(name)
		if !ok {
			return fmt.Errorf("insert %s: class %s@%s has no attribute %q", o.LOid, o.Class, db.site, name)
		}
		if err := checkKind(a, v); err != nil {
			return fmt.Errorf("insert %s attribute %s: %w", o.LOid, name, err)
		}
	}
	if db.engine != nil {
		if err := db.engine.LogInsert(o); err != nil {
			return fmt.Errorf("insert %s into %s@%s: %w", o.LOid, o.Class, db.site, err)
		}
	}
	l := located{obj: o, pos: len(db.byLOid)}
	e.order = append(e.order, l)
	db.byLOid[o.LOid] = l
	for attr, ix := range e.indexes {
		ix.insert(o.Attr(attr), o.LOid)
	}
	return nil
}

// MustInsert is Insert that panics on error; intended for fixtures.
func (db *Database) MustInsert(o *object.Object) {
	if err := db.Insert(o); err != nil {
		panic(err)
	}
}

func checkKind(a schema.Attribute, v object.Value) error {
	if a.MultiValued && v.Kind() == object.KindList {
		for _, e := range v.Elems() {
			if err := checkScalarKind(a, e); err != nil {
				return err
			}
		}
		return nil
	}
	return checkScalarKind(a, v)
}

func checkScalarKind(a schema.Attribute, v object.Value) error {
	if a.IsComplex() {
		if v.Kind() != object.KindRef {
			return fmt.Errorf("complex attribute wants a ref, got %s", v.Kind())
		}
		return nil
	}
	if v.Kind() != a.Prim {
		// Ints are acceptable where floats are declared.
		if a.Prim == object.KindFloat && v.Kind() == object.KindInt {
			return nil
		}
		return fmt.Errorf("want %s, got %s", a.Prim, v.Kind())
	}
	return nil
}

// Deref resolves a local object reference anywhere in the database.
func (db *Database) Deref(id object.LOid) (*object.Object, bool) {
	l, ok := db.byLOid[id]
	return l.obj, ok
}

// Locate is Deref that also returns the object's position, in the same one
// probe.
func (db *Database) Locate(id object.LOid) (*object.Object, int, bool) {
	l, ok := db.byLOid[id]
	return l.obj, l.pos, ok
}

// Len returns the number of objects stored across all extents; positions are below it.
func (db *Database) Len() int { return len(db.byLOid) }

// CheckRefs verifies that every complex attribute value references an
// existing object of the attribute's domain class (referential integrity).
func (db *Database) CheckRefs() error {
	for _, name := range db.schema.ClassNames() {
		e := db.extents[name]
		var err error
		e.Scan(func(o *object.Object) bool {
			for i := 0; i < o.Len(); i++ {
				attr, v := o.At(i)
				a, _ := e.class.Attr(attr)
				err = checkRefValue(db, o, a, attr, v)
				if err != nil {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func checkRefValue(db *Database, o *object.Object, a schema.Attribute, attr string, v object.Value) error {
	if !a.IsComplex() {
		return nil
	}
	refs := []object.Value{v}
	if v.Kind() == object.KindList {
		refs = v.Elems()
	}
	for _, r := range refs {
		target, ok := db.Deref(r.RefLOid())
		if !ok {
			return fmt.Errorf("%s.%s references missing object %s", o.LOid, attr, r.RefLOid())
		}
		if target.Class != a.Domain {
			return fmt.Errorf("%s.%s references %s of class %s, want %s",
				o.LOid, attr, target.LOid, target.Class, a.Domain)
		}
	}
	return nil
}
