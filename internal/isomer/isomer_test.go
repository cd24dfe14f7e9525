package isomer

import (
	"testing"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
)

// TestIdentifyReproducesFigure5 checks that key-based isomerism
// identification groups the school objects into exactly the entities of the
// paper's Figure 5 (GOid names differ; the partition must match).
func TestIdentifyReproducesFigure5(t *testing.T) {
	fx := school.New()
	tables, err := Identify(fx.Global, fx.Databases)
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}

	samePartition(t, fx.Mapping.Table("Student"), tables.Table("Student"))
	samePartition(t, fx.Mapping.Table("Teacher"), tables.Table("Teacher"))
	samePartition(t, fx.Mapping.Table("Department"), tables.Table("Department"))
	samePartition(t, fx.Mapping.Table("Address"), tables.Table("Address"))
}

// samePartition verifies both tables group the same objects together.
func samePartition(t *testing.T, want, got *gmap.Table) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Errorf("%s: %d entities, want %d", want.Class(), got.Len(), want.Len())
	}
	if want.Bindings() != got.Bindings() {
		t.Errorf("%s: %d bindings, want %d", want.Class(), got.Bindings(), want.Bindings())
	}
	for _, g := range want.GOids() {
		locs := want.Locations(g)
		first := locs[0]
		gotGOid, ok := got.GOidOf(first.Site, first.LOid)
		if !ok {
			t.Errorf("%s: %s@%s unmapped", want.Class(), first.LOid, first.Site)
			continue
		}
		gotLocs := got.Locations(gotGOid)
		if len(gotLocs) != len(locs) {
			t.Errorf("%s: entity of %s@%s has %d members, want %d",
				want.Class(), first.LOid, first.Site, len(gotLocs), len(locs))
			continue
		}
		for i := range locs {
			if gotLocs[i] != locs[i] {
				t.Errorf("%s: entity of %s@%s member %d = %v, want %v",
					want.Class(), first.LOid, first.Site, i, gotLocs[i], locs[i])
			}
		}
	}
}

func TestCountIsomeric(t *testing.T) {
	fx := school.New()
	counts := CountIsomeric(fx.Mapping)
	want := map[string]int{"Student": 1, "Teacher": 3, "Department": 2, "Address": 0}
	for class, n := range want {
		if counts[class] != n {
			t.Errorf("CountIsomeric[%s] = %d, want %d", class, counts[class], n)
		}
	}
}

func TestValidateAcceptsFixture(t *testing.T) {
	fx := school.New()
	if err := Validate(fx.Global, fx.Databases, fx.Mapping); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsBadBindings(t *testing.T) {
	fx := school.New()

	bad := fx.Mapping.Clone()
	bad.Table("Student").MustBind("gs9", "DB1", "ghost")
	if err := Validate(fx.Global, fx.Databases, bad); err == nil {
		t.Error("binding to missing object accepted")
	}

	bad2 := fx.Mapping.Clone()
	bad2.Table("Student").MustBind("gs9", "DB3", "t1''") // DB3 has no Student
	if err := Validate(fx.Global, fx.Databases, bad2); err == nil {
		t.Error("binding at non-constituent site accepted")
	}

	bad3 := fx.Mapping.Clone()
	bad3.Table("Student").MustBind("gs9", "DB1", "t1") // wrong class
	if err := Validate(fx.Global, fx.Databases, bad3); err == nil {
		t.Error("binding of wrong class accepted")
	}

	bad4 := gmap.NewTables()
	bad4.Table("Nope").MustBind("g1", "DB1", "s1")
	if err := Validate(fx.Global, fx.Databases, bad4); err == nil {
		t.Error("table for unknown global class accepted")
	}
}

func TestIdentifyNullKeyGetsSingleton(t *testing.T) {
	fx := school.New()
	// Insert two students with null s-no in different sites; they must NOT
	// be matched to each other.
	fx.Databases["DB1"].MustInsert(object.New("sx", "Student", map[string]object.Value{
		"name": object.Str("Ghost"),
	}))
	fx.Databases["DB2"].MustInsert(object.New("sy'", "Student", map[string]object.Value{
		"name": object.Str("Ghost"),
	}))
	tables, err := Identify(fx.Global, fx.Databases)
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	st := tables.Table("Student")
	gx, _ := st.GOidOf("DB1", "sx")
	gy, _ := st.GOidOf("DB2", "sy'")
	if gx == gy || len(st.Locations(gx)) != 1 || len(st.Locations(gy)) != 1 {
		t.Errorf("null-key objects were matched: %v, %v", st.Locations(gx), st.Locations(gy))
	}
}

func TestIdentifyMissingDatabase(t *testing.T) {
	fx := school.New()
	delete(fx.Databases, "DB3")
	if _, err := Identify(fx.Global, fx.Databases); err == nil {
		t.Error("missing database accepted")
	}
}
