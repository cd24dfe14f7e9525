package remote

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
)

// schoolRecords is a digest of the named record of every object of the
// school fixture, site by site, class by class, in insertion order: the bytes
// the WAL logs and a store request carries.
const schoolRecords = "3a9875d42278bd76"

// TestStoreAdoptsClassLayout: an object reaches a store by New and Insert,
// by WAL replay and by a store request over TCP, and whichever way it came,
// every object of an extent is laid out by one layout, its class's attribute
// names. Laid out so, an object reads as the record it was built from —
// Attr, Len, At, AttrNames, String and its modeled size — and writes the
// same named record, byte for byte.
func TestStoreAdoptsClassLayout(t *testing.T) {
	fx := school.New()
	sum := sha256.New()
	for _, site := range []object.SiteID{"DB1", "DB2", "DB3"} {
		db := fx.Databases[site]
		for _, class := range db.Schema().ClassNames() {
			db.Extent(class).Scan(func(o *object.Object) bool {
				rec, err := object.AppendObject(nil, o)
				if err != nil {
					t.Fatal(err)
				}
				sum.Write(rec)
				return true
			})
		}
		sharesClassLayout(t, "New + Insert at "+string(site), db)
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)[:8]); got != schoolRecords {
		t.Errorf("the school fixture's named records digest to %s, want %s", got, schoolRecords)
	}

	// An object built by New holds a layout of its own until the store
	// takes it over, in place: no store holds it yet.
	db := store.MustNewDatabase(fx.Schemas["DB2"])
	built := object.New("t7'", "Teacher", map[string]object.Value{"name": object.Str("Ada")})
	own := built.Layout()
	db.MustInsert(built)
	if got, _ := db.Deref("t7'"); got != built || built.Layout() == own {
		t.Errorf("Insert stored %p laid out by %v, want %p relaid by its class", got, built.Layout().Names(), built)
	}
	sharesClassLayout(t, "New + Insert of a partial object", db)

	// A store request over TCP, then WAL replay on restart.
	fed := schoolFed()
	coord := &Coordinator{}
	matcher := isomer.NewMatcher(fed.Global)
	if err := matcher.Adopt(fed.Databases, fed.Tables.Clone()); err != nil {
		t.Fatal(err)
	}
	coord.Matcher, coord.Tables = matcher, matcher.Tables()
	cluster, err := StartCluster(ClusterConfig{Federation: fed, DataDir: t.TempDir(), Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	defer coord.Close()
	for _, o := range []*object.Object{
		object.New("t9''", "Teacher", map[string]object.Value{"name": object.Str("Haley")}),
		object.New("d9''", "Department", map[string]object.Value{"name": object.Str("Math")}),
	} {
		if _, err := coord.Insert("DB3", o); err != nil {
			t.Fatalf("insert %s at DB3: %v", o.LOid, err)
		}
	}
	sharesClassLayout(t, "store requests at DB3", cluster.Server("DB3").cfg.DB)
	if err := cluster.Restart("DB3"); err != nil {
		t.Fatal(err)
	}
	replayed := cluster.Server("DB3").cfg.DB
	if _, ok := replayed.Deref("t9''"); !ok {
		t.Fatal("the restarted DB3 lost t9''")
	}
	sharesClassLayout(t, "WAL replay at DB3", replayed)
}

// sharesClassLayout fails t unless every object of every extent of db is
// laid out by the extent's one layout, its class's names sorted, and reads
// and encodes as its own named record decoded afresh.
func sharesClassLayout(t *testing.T, how string, db *store.Database) {
	t.Helper()
	for _, class := range db.Schema().ClassNames() {
		names := db.Schema().Class(class).AttrNames()
		slices.Sort(names)
		var layout *object.Layout
		db.Extent(class).Scan(func(o *object.Object) bool {
			if layout == nil {
				layout = o.Layout()
			}
			if o.Layout() != layout || !slices.Equal(layout.Names(), names) {
				t.Errorf("%s: %s is laid out by %p %v, its extent by %p %v", how, o.LOid, o.Layout(), o.Layout().Names(), layout, names)
			}
			rec, err := object.AppendObject(nil, o)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := object.DecodeObject(rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := object.AppendObject(nil, ref)
			same := string(again) == string(rec) && o.Len() == ref.Len() && o.String() == ref.String() &&
				slices.Equal(o.AttrNames(), ref.AttrNames()) && o.WireSize(nil) == ref.WireSize(nil)
			for _, name := range append(names, "nope") {
				same = same && object.Identical(o.Attr(name), ref.Attr(name))
			}
			if !same {
				t.Errorf("%s: %v reads or encodes apart from its record %v", how, o, ref)
			}
			return true
		})
	}
}

// TestInsertLeavesAStoredObjectAlone: the objects of one database inserted
// into a second while the first, which holds them, is scanned. The second
// store lays out copies, so the readers of the first see them unchanged
// (run with -race to catch an edit).
func TestInsertLeavesAStoredObjectAlone(t *testing.T) {
	fx := school.New()
	first := fx.Databases["DB1"]
	want := map[object.LOid]string{}
	for _, class := range first.Schema().ClassNames() {
		first.Extent(class).Scan(func(o *object.Object) bool {
			want[o.LOid] = o.String()
			return true
		})
	}
	// A schema whose classes name one attribute more lays every object out
	// anew, so a store that relaid the object itself would move its values.
	wider := schema.NewSchema(first.Site())
	for _, name := range first.Schema().ClassNames() {
		c := first.Schema().Class(name)
		wider.MustAddClass(schema.MustClass(name, append(slices.Clone(c.Attrs), schema.Prim("zz", object.KindInt)), c.Key...))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 50 {
			for _, class := range first.Schema().ClassNames() {
				first.Extent(class).Scan(func(o *object.Object) bool {
					if got := o.String(); got != want[o.LOid] {
						t.Errorf("a reader of the first store saw %s, want %s", got, want[o.LOid])
					}
					return true
				})
			}
		}
	}()
	for _, s := range []*schema.Schema{first.Schema(), wider} {
		second := store.MustNewDatabase(s)
		for _, class := range first.Schema().ClassNames() {
			for _, o := range first.Extent(class).All() {
				second.MustInsert(o)
			}
		}
		sharesClassLayout(t, "a second store", second)
	}
	<-done
	sharesClassLayout(t, "the first store", first)
}
