// Package schema models component object schemas and their integration into
// a global object schema.
//
// A component schema is a set of classes, each with primitive attributes and
// complex attributes (whose domain is another class); together the complex
// attributes form the class composition hierarchy. Schema integration
// constructs each global class as the attribute union of its constituent
// classes (the classes in component databases carrying the same semantics).
// A global attribute absent from a constituent class is a missing attribute
// of that class: its data is missing at that site, which is the primary
// source of maybe results during query processing.
package schema

import (
	"fmt"
	"sort"

	"github.com/hetfed/hetfed/internal/object"
)

// Attribute describes one attribute of a class. An attribute is either
// primitive (Prim set, Domain empty) or complex (Domain names the class its
// values reference).
type Attribute struct {
	Name string
	// Domain is the referenced class name for complex attributes, empty for
	// primitive attributes.
	Domain string
	// Prim is the value kind of a primitive attribute (KindInt, KindFloat,
	// KindString or KindBool); it is zero for complex attributes.
	Prim object.Kind
	// MultiValued marks set-valued attributes (paper §5 extension).
	MultiValued bool
}

// IsComplex reports whether the attribute references another class.
func (a Attribute) IsComplex() bool { return a.Domain != "" }

// Prim returns a primitive attribute descriptor.
func Prim(name string, kind object.Kind) Attribute {
	return Attribute{Name: name, Prim: kind}
}

// Complex returns a complex attribute descriptor referencing domain class.
func Complex(name, domain string) Attribute {
	return Attribute{Name: name, Domain: domain}
}

// Class describes one class of a component schema: an ordered attribute list
// plus the entity key used to identify isomeric objects across databases.
type Class struct {
	Name  string
	Attrs []Attribute
	// Key lists the attributes whose values identify the real-world entity
	// an object represents; objects in different databases with equal key
	// values are isomeric. Empty means objects of this class are never
	// matched across sites.
	Key []string

	byName map[string]int
}

// NewClass builds a class from its attributes. Attribute names must be
// unique within the class.
func NewClass(name string, attrs []Attribute, key ...string) (*Class, error) {
	c := &Class{
		Name:   name,
		Attrs:  make([]Attribute, len(attrs)),
		Key:    append([]string(nil), key...),
		byName: make(map[string]int, len(attrs)),
	}
	copy(c.Attrs, attrs)
	for i, a := range c.Attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("class %s: attribute %d has empty name", name, i)
		}
		if _, dup := c.byName[a.Name]; dup {
			return nil, fmt.Errorf("class %s: duplicate attribute %q", name, a.Name)
		}
		if a.IsComplex() && a.Prim != 0 {
			return nil, fmt.Errorf("class %s: attribute %q is both primitive and complex", name, a.Name)
		}
		if !a.IsComplex() && a.Prim == 0 {
			return nil, fmt.Errorf("class %s: attribute %q has no type", name, a.Name)
		}
		c.byName[a.Name] = i
	}
	for _, k := range c.Key {
		if _, ok := c.byName[k]; !ok {
			return nil, fmt.Errorf("class %s: key attribute %q not defined", name, k)
		}
	}
	return c, nil
}

// MustClass is NewClass that panics on error; intended for fixtures.
func MustClass(name string, attrs []Attribute, key ...string) *Class {
	c, err := NewClass(name, attrs, key...)
	if err != nil {
		panic(err)
	}
	return c
}

// Attr returns the named attribute and whether it exists.
func (c *Class) Attr(name string) (Attribute, bool) {
	i, ok := c.byName[name]
	if !ok {
		return Attribute{}, false
	}
	return c.Attrs[i], true
}

// Has reports whether the class defines the named attribute.
func (c *Class) Has(name string) bool {
	_, ok := c.byName[name]
	return ok
}

// AttrNames returns the class's attribute names in declaration order.
func (c *Class) AttrNames() []string {
	names := make([]string, len(c.Attrs))
	for i, a := range c.Attrs {
		names[i] = a.Name
	}
	return names
}

// Schema is one component database's schema: its classes, indexed by name.
type Schema struct {
	Site    object.SiteID
	classes map[string]*Class
	order   []string
}

// NewSchema returns an empty schema for the given site.
func NewSchema(site object.SiteID) *Schema {
	return &Schema{Site: site, classes: make(map[string]*Class)}
}

// AddClass registers a class. Class names must be unique, and complex
// attribute domains are validated lazily by Validate.
func (s *Schema) AddClass(c *Class) error {
	if _, dup := s.classes[c.Name]; dup {
		return fmt.Errorf("schema %s: duplicate class %q", s.Site, c.Name)
	}
	s.classes[c.Name] = c
	s.order = append(s.order, c.Name)
	return nil
}

// MustAddClass is AddClass that panics on error; intended for fixtures.
func (s *Schema) MustAddClass(c *Class) {
	if err := s.AddClass(c); err != nil {
		panic(err)
	}
}

// Class returns the named class, or nil when absent.
func (s *Schema) Class(name string) *Class { return s.classes[name] }

// ClassNames returns the schema's class names in registration order.
func (s *Schema) ClassNames() []string {
	return append([]string(nil), s.order...)
}

// Validate checks that every complex attribute's domain class exists.
func (s *Schema) Validate() error {
	for _, name := range s.order {
		c := s.classes[name]
		for _, a := range c.Attrs {
			if a.IsComplex() && s.classes[a.Domain] == nil {
				return fmt.Errorf("schema %s: class %s attribute %s references unknown class %q",
					s.Site, c.Name, a.Name, a.Domain)
			}
		}
	}
	return nil
}

// Constituent identifies one constituent class of a global class.
type Constituent struct {
	Site  object.SiteID
	Class string
}

// GlobalClass is a class of the integrated global schema: the attribute
// union of its constituent classes, plus per-site missing-attribute sets.
type GlobalClass struct {
	Name  string
	Attrs []Attribute
	// Key is the entity key inherited from the constituent classes.
	Key []string
	// Constituents maps each site holding a constituent class to that
	// class's local name.
	Constituents map[object.SiteID]string

	byName  map[string]int
	missing map[object.SiteID]map[string]bool
}

// Attr returns the named global attribute and whether it exists.
func (g *GlobalClass) Attr(name string) (Attribute, bool) {
	i, ok := g.byName[name]
	if !ok {
		return Attribute{}, false
	}
	return g.Attrs[i], true
}

// Has reports whether the global class defines the named attribute.
func (g *GlobalClass) Has(name string) bool {
	_, ok := g.byName[name]
	return ok
}

// AttrNames returns the global attribute names in integration order.
func (g *GlobalClass) AttrNames() []string {
	names := make([]string, len(g.Attrs))
	for i, a := range g.Attrs {
		names[i] = a.Name
	}
	return names
}

// Holds reports whether the constituent class at the given site defines the
// named attribute. A false return for a site that has a constituent class
// means the attribute is a missing attribute of that class.
func (g *GlobalClass) Holds(site object.SiteID, attr string) bool {
	m, ok := g.missing[site]
	if !ok {
		return false
	}
	return !m[attr]
}

// MissingAttrs returns the missing attributes of the constituent class at
// the given site, sorted. It returns nil when the site has no constituent.
func (g *GlobalClass) MissingAttrs(site object.SiteID) []string {
	m, ok := g.missing[site]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Sites returns the sites holding a constituent class, sorted.
func (g *GlobalClass) Sites() []object.SiteID {
	out := make([]object.SiteID, 0, len(g.Constituents))
	for s := range g.Constituents {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Global is the integrated global schema.
type Global struct {
	classes map[string]*GlobalClass
	order   []string
	// byConstituent maps site/local-class to the owning global class.
	byConstituent map[Constituent]string
}

// Class returns the named global class, or nil.
func (g *Global) Class(name string) *GlobalClass { return g.classes[name] }

// ClassNames returns the global class names in integration order.
func (g *Global) ClassNames() []string { return append([]string(nil), g.order...) }

// GlobalFor returns the global class that the given constituent class was
// integrated into, or nil.
func (g *Global) GlobalFor(site object.SiteID, localClass string) *GlobalClass {
	name, ok := g.byConstituent[Constituent{Site: site, Class: localClass}]
	if !ok {
		return nil
	}
	return g.classes[name]
}

// Correspondence declares that the listed constituent classes all represent
// the same global class.
type Correspondence struct {
	GlobalClass string
	Members     []Constituent
}

// Integrate constructs the global schema from component schemas and class
// correspondences, following the paper's integration rule: each global class
// is the set union of its constituent classes' attributes. Attributes with
// the same name in corresponding classes must agree on type; complex
// attribute domains are rewritten to the corresponding global class names.
func Integrate(schemas map[object.SiteID]*Schema, corrs []Correspondence) (*Global, error) {
	for site, s := range schemas {
		if s.Site != site {
			return nil, fmt.Errorf("schema registered under %s reports site %s", site, s.Site)
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}

	// globalOf maps (site, local class) -> global class name so complex
	// attribute domains can be rewritten.
	globalOf := make(map[Constituent]string)
	for _, corr := range corrs {
		for _, m := range corr.Members {
			key := m
			if prev, dup := globalOf[key]; dup {
				return nil, fmt.Errorf("constituent %s@%s claimed by both %s and %s",
					m.Class, m.Site, prev, corr.GlobalClass)
			}
			globalOf[key] = corr.GlobalClass
		}
	}

	g := &Global{
		classes:       make(map[string]*GlobalClass, len(corrs)),
		byConstituent: globalOf,
	}

	for _, corr := range corrs {
		if _, dup := g.classes[corr.GlobalClass]; dup {
			return nil, fmt.Errorf("duplicate global class %q", corr.GlobalClass)
		}
		if len(corr.Members) == 0 {
			return nil, fmt.Errorf("global class %q has no constituents", corr.GlobalClass)
		}
		gc := &GlobalClass{
			Name:         corr.GlobalClass,
			Constituents: make(map[object.SiteID]string, len(corr.Members)),
			byName:       make(map[string]int),
			missing:      make(map[object.SiteID]map[string]bool),
		}
		for _, m := range corr.Members {
			s := schemas[m.Site]
			if s == nil {
				return nil, fmt.Errorf("global class %s: no schema for site %s", corr.GlobalClass, m.Site)
			}
			lc := s.Class(m.Class)
			if lc == nil {
				return nil, fmt.Errorf("global class %s: site %s has no class %q",
					corr.GlobalClass, m.Site, m.Class)
			}
			if prev, dup := gc.Constituents[m.Site]; dup {
				return nil, fmt.Errorf("global class %s: site %s contributes both %s and %s",
					corr.GlobalClass, m.Site, prev, m.Class)
			}
			gc.Constituents[m.Site] = m.Class

			for _, a := range lc.Attrs {
				ga := a
				if a.IsComplex() {
					dom, ok := globalOf[Constituent{Site: m.Site, Class: a.Domain}]
					if !ok {
						return nil, fmt.Errorf("global class %s: domain class %s of %s.%s@%s is not integrated",
							corr.GlobalClass, a.Domain, m.Class, a.Name, m.Site)
					}
					ga.Domain = dom
				}
				if i, seen := gc.byName[a.Name]; seen {
					if err := compatibleAttr(gc.Attrs[i], ga); err != nil {
						return nil, fmt.Errorf("global class %s attribute %s: %w", corr.GlobalClass, a.Name, err)
					}
					continue
				}
				gc.byName[ga.Name] = len(gc.Attrs)
				gc.Attrs = append(gc.Attrs, ga)
			}
			// The entity key is the union of constituent keys (they must
			// agree where they overlap; first writer wins, later conflicts
			// are rejected).
			for _, k := range lc.Key {
				if !contains(gc.Key, k) {
					gc.Key = append(gc.Key, k)
				}
			}
		}

		// Compute missing attributes per constituent class: the global
		// attributes the local class does not define.
		for site, lname := range gc.Constituents {
			lc := schemas[site].Class(lname)
			miss := make(map[string]bool)
			for _, a := range gc.Attrs {
				if !lc.Has(a.Name) {
					miss[a.Name] = true
				}
			}
			gc.missing[site] = miss
		}

		g.classes[gc.Name] = gc
		g.order = append(g.order, gc.Name)
	}

	// Validate global composition hierarchy: all global domains exist.
	for _, name := range g.order {
		gc := g.classes[name]
		for _, a := range gc.Attrs {
			if a.IsComplex() && g.classes[a.Domain] == nil {
				return nil, fmt.Errorf("global class %s attribute %s references unintegrated class %q",
					name, a.Name, a.Domain)
			}
		}
	}
	return g, nil
}

func compatibleAttr(a, b Attribute) error {
	if a.IsComplex() != b.IsComplex() {
		return fmt.Errorf("primitive/complex conflict between constituents")
	}
	if a.IsComplex() {
		if a.Domain != b.Domain {
			return fmt.Errorf("domain conflict: %s vs %s", a.Domain, b.Domain)
		}
		return nil
	}
	if a.Prim != b.Prim {
		return fmt.Errorf("type conflict: %s vs %s", a.Prim, b.Prim)
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
