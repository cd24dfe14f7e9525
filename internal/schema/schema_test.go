package schema

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

func db1Schema() *Schema {
	s := NewSchema("DB1")
	s.MustAddClass(MustClass("Student", []Attribute{
		Prim("s-no", object.KindInt),
		Prim("name", object.KindString),
		Prim("age", object.KindInt),
		Complex("advisor", "Teacher"),
		Prim("sex", object.KindString),
	}, "s-no"))
	s.MustAddClass(MustClass("Teacher", []Attribute{
		Prim("name", object.KindString),
		Complex("department", "Department"),
	}, "name"))
	s.MustAddClass(MustClass("Department", []Attribute{
		Prim("name", object.KindString),
	}, "name"))
	return s
}

func db2Schema() *Schema {
	s := NewSchema("DB2")
	s.MustAddClass(MustClass("Student", []Attribute{
		Prim("s-no", object.KindInt),
		Prim("name", object.KindString),
		Prim("sex", object.KindString),
		Complex("address", "Address"),
		Complex("advisor", "Teacher"),
	}, "s-no"))
	s.MustAddClass(MustClass("Teacher", []Attribute{
		Prim("name", object.KindString),
		Prim("speciality", object.KindString),
	}, "name"))
	s.MustAddClass(MustClass("Address", []Attribute{
		Prim("city", object.KindString),
		Prim("street", object.KindString),
		Prim("zipcode", object.KindInt),
	}, "city", "street"))
	return s
}

func db3Schema() *Schema {
	s := NewSchema("DB3")
	s.MustAddClass(MustClass("Department", []Attribute{
		Prim("name", object.KindString),
		Prim("location", object.KindString),
	}, "name"))
	s.MustAddClass(MustClass("Teacher", []Attribute{
		Prim("name", object.KindString),
		Complex("department", "Department"),
	}, "name"))
	return s
}

func schoolCorrs() []Correspondence {
	return []Correspondence{
		{GlobalClass: "Student", Members: []Constituent{
			{Site: "DB1", Class: "Student"}, {Site: "DB2", Class: "Student"},
		}},
		{GlobalClass: "Teacher", Members: []Constituent{
			{Site: "DB1", Class: "Teacher"}, {Site: "DB2", Class: "Teacher"}, {Site: "DB3", Class: "Teacher"},
		}},
		{GlobalClass: "Department", Members: []Constituent{
			{Site: "DB1", Class: "Department"}, {Site: "DB3", Class: "Department"},
		}},
		{GlobalClass: "Address", Members: []Constituent{
			{Site: "DB2", Class: "Address"},
		}},
	}
}

func schoolGlobal(t *testing.T) *Global {
	t.Helper()
	g, err := Integrate(map[object.SiteID]*Schema{
		"DB1": db1Schema(), "DB2": db2Schema(), "DB3": db3Schema(),
	}, schoolCorrs())
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	return g
}

func TestNewClassErrors(t *testing.T) {
	if _, err := NewClass("C", []Attribute{Prim("a", object.KindInt), Prim("a", object.KindInt)}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewClass("C", []Attribute{{Name: "a"}}); err == nil {
		t.Error("untyped attribute accepted")
	}
	if _, err := NewClass("C", []Attribute{{Name: "a", Domain: "D", Prim: object.KindInt}}); err == nil {
		t.Error("primitive+complex attribute accepted")
	}
	if _, err := NewClass("C", []Attribute{{Name: ""}}); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewClass("C", []Attribute{Prim("a", object.KindInt)}, "nope"); err == nil {
		t.Error("unknown key attribute accepted")
	}
}

func TestClassAccessors(t *testing.T) {
	c := MustClass("Student", []Attribute{
		Prim("name", object.KindString),
		Complex("advisor", "Teacher"),
	}, "name")
	a, ok := c.Attr("advisor")
	if !ok || !a.IsComplex() || a.Domain != "Teacher" {
		t.Errorf("Attr(advisor) = %+v, %v", a, ok)
	}
	if _, ok := c.Attr("nope"); ok {
		t.Error("Attr on unknown name returned ok")
	}
	if !c.Has("name") || c.Has("nope") {
		t.Error("Has wrong")
	}
	if got := c.AttrNames(); !reflect.DeepEqual(got, []string{"name", "advisor"}) {
		t.Errorf("AttrNames = %v", got)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := NewSchema("DB1")
	s.MustAddClass(MustClass("A", []Attribute{Complex("b", "B")}))
	if err := s.Validate(); err == nil {
		t.Error("dangling domain accepted")
	}
	s.MustAddClass(MustClass("B", []Attribute{Prim("x", object.KindInt)}))
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := s.AddClass(MustClass("A", nil)); err == nil {
		t.Error("duplicate class accepted")
	}
	if got := s.ClassNames(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("ClassNames = %v", got)
	}
}

func TestIntegrateSchoolAttributeUnion(t *testing.T) {
	g := schoolGlobal(t)

	student := g.Class("Student")
	if student == nil {
		t.Fatal("no global Student")
	}
	want := []string{"s-no", "name", "age", "advisor", "sex", "address"}
	if got := student.AttrNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("Student attrs = %v, want %v", got, want)
	}

	teacher := g.Class("Teacher")
	wantT := []string{"name", "department", "speciality"}
	if got := teacher.AttrNames(); !reflect.DeepEqual(got, wantT) {
		t.Errorf("Teacher attrs = %v, want %v", got, wantT)
	}
}

func TestIntegrateSchoolMissingAttrs(t *testing.T) {
	g := schoolGlobal(t)
	cases := []struct {
		class string
		site  object.SiteID
		want  []string
	}{
		{"Student", "DB1", []string{"address"}},
		{"Student", "DB2", []string{"age"}},
		{"Teacher", "DB1", []string{"speciality"}},
		{"Teacher", "DB2", []string{"department"}},
		{"Teacher", "DB3", []string{"speciality"}},
		{"Department", "DB1", []string{"location"}},
		{"Department", "DB3", []string{}},
	}
	for _, c := range cases {
		got := g.Class(c.class).MissingAttrs(c.site)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("MissingAttrs(%s@%s) = %v, want %v", c.class, c.site, got, c.want)
		}
	}
	if g.Class("Student").MissingAttrs("DB3") != nil {
		t.Error("MissingAttrs for absent constituent should be nil")
	}
}

func TestGlobalClassHolds(t *testing.T) {
	g := schoolGlobal(t)
	teacher := g.Class("Teacher")
	if teacher.Holds("DB1", "speciality") {
		t.Error("DB1 Teacher should not hold speciality")
	}
	if !teacher.Holds("DB2", "speciality") {
		t.Error("DB2 Teacher should hold speciality")
	}
	if teacher.Holds("DB9", "name") {
		t.Error("unknown site should hold nothing")
	}
}

func TestGlobalClassSites(t *testing.T) {
	g := schoolGlobal(t)
	got := g.Class("Teacher").Sites()
	want := []object.SiteID{"DB1", "DB2", "DB3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sites = %v, want %v", got, want)
	}
}

func TestGlobalForAndDomainRewrite(t *testing.T) {
	g := schoolGlobal(t)
	if gc := g.GlobalFor("DB2", "Address"); gc == nil || gc.Name != "Address" {
		t.Error("GlobalFor(DB2, Address) wrong")
	}
	if g.GlobalFor("DB1", "Address") != nil {
		t.Error("GlobalFor for absent constituent should be nil")
	}
	a, _ := g.Class("Student").Attr("advisor")
	if a.Domain != "Teacher" {
		t.Errorf("advisor domain = %s", a.Domain)
	}
}

func TestIntegrateErrors(t *testing.T) {
	schemas := map[object.SiteID]*Schema{
		"DB1": db1Schema(), "DB2": db2Schema(), "DB3": db3Schema(),
	}
	// Unknown site.
	_, err := Integrate(schemas, []Correspondence{
		{GlobalClass: "X", Members: []Constituent{{Site: "DB9", Class: "Student"}}},
	})
	if err == nil || !strings.Contains(err.Error(), "no schema") {
		t.Errorf("unknown site: %v", err)
	}
	// Unknown class.
	_, err = Integrate(schemas, []Correspondence{
		{GlobalClass: "X", Members: []Constituent{{Site: "DB1", Class: "Nope"}}},
	})
	if err == nil || !strings.Contains(err.Error(), "no class") {
		t.Errorf("unknown class: %v", err)
	}
	// Unintegrated domain class.
	_, err = Integrate(schemas, []Correspondence{
		{GlobalClass: "Student", Members: []Constituent{{Site: "DB1", Class: "Student"}}},
	})
	if err == nil {
		t.Error("unintegrated domain accepted")
	}
	// Empty constituents.
	_, err = Integrate(schemas, []Correspondence{{GlobalClass: "X"}})
	if err == nil {
		t.Error("empty correspondence accepted")
	}
	// Type conflict.
	bad := NewSchema("DB4")
	bad.MustAddClass(MustClass("Student", []Attribute{Prim("name", object.KindInt)}))
	schemas["DB4"] = bad
	_, err = Integrate(schemas, []Correspondence{
		{GlobalClass: "Student", Members: []Constituent{
			{Site: "DB1", Class: "Student"}, {Site: "DB4", Class: "Student"},
		}},
		{GlobalClass: "Teacher", Members: []Constituent{{Site: "DB1", Class: "Teacher"}}},
		{GlobalClass: "Department", Members: []Constituent{{Site: "DB1", Class: "Department"}}},
	})
	if err == nil || !strings.Contains(err.Error(), "type conflict") {
		t.Errorf("type conflict: %v", err)
	}
	delete(schemas, "DB4")
	// Duplicate global class.
	_, err = Integrate(schemas, []Correspondence{
		{GlobalClass: "D", Members: []Constituent{{Site: "DB1", Class: "Department"}}},
		{GlobalClass: "D", Members: []Constituent{{Site: "DB3", Class: "Department"}}},
	})
	if err == nil {
		t.Error("duplicate global class accepted")
	}
	// Constituent claimed twice.
	_, err = Integrate(schemas, []Correspondence{
		{GlobalClass: "D1", Members: []Constituent{{Site: "DB1", Class: "Department"}}},
		{GlobalClass: "D2", Members: []Constituent{{Site: "DB1", Class: "Department"}}},
	})
	if err == nil {
		t.Error("constituent claimed twice accepted")
	}
}

func TestIntegrateKeyUnion(t *testing.T) {
	g := schoolGlobal(t)
	if got := g.Class("Student").Key; !reflect.DeepEqual(got, []string{"s-no"}) {
		t.Errorf("Student key = %v", got)
	}
	if got := g.Class("Address").Key; !reflect.DeepEqual(got, []string{"city", "street"}) {
		t.Errorf("Address key = %v", got)
	}
}
