// Package fedfile loads and saves federations as JSON documents, so the
// query tools can run against user-defined data rather than only the
// built-in fixtures. A document declares each component database's classes
// (with entity keys), its objects, and the class correspondences that form
// the global schema; the GOid mapping tables are derived by key-based
// isomerism identification on load.
//
// Value encoding: a JSON number takes the kind its attribute declares — a
// float attribute any number, an int attribute an integer numeral (anything
// else is a float, which the store rejects there); strings and booleans map
// directly, {"$ref": "loid"} is a local object reference, arrays are
// multi-valued attributes, and null (or omission) is missing data.
package fedfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/store"
)

// Federation is a loaded, validated federation ready for an exec.Engine.
type Federation struct {
	Schemas   map[object.SiteID]*schema.Schema
	Global    *schema.Global
	Databases map[object.SiteID]*store.Database
	Tables    *gmap.Tables
}

// Document is the JSON shape.
type Document struct {
	Sites  map[string]SiteDoc `json:"sites"`
	Global []GlobalClassDoc   `json:"global"`
}

// SiteDoc describes one component database.
type SiteDoc struct {
	Classes map[string]ClassDoc `json:"classes"`
	Objects []ObjectDoc         `json:"objects"`
}

// ClassDoc describes one class.
type ClassDoc struct {
	Attrs []AttrDoc `json:"attrs"`
	Key   []string  `json:"key,omitempty"`
}

// AttrDoc describes one attribute: either a primitive type ("int", "float",
// "string", "bool") or a referenced class.
type AttrDoc struct {
	Name  string `json:"name"`
	Type  string `json:"type,omitempty"`
	Class string `json:"class,omitempty"`
	Multi bool   `json:"multi,omitempty"`
}

// ObjectDoc describes one stored object.
type ObjectDoc struct {
	ID    string                     `json:"id"`
	Class string                     `json:"class"`
	Attrs map[string]json.RawMessage `json:"attrs"`
}

// GlobalClassDoc declares one global class's constituents.
type GlobalClassDoc struct {
	Class   string           `json:"class"`
	Members []ConstituentDoc `json:"members"`
}

// ConstituentDoc names one constituent class.
type ConstituentDoc struct {
	Site  string `json:"site"`
	Class string `json:"class"`
}

// Load reads and parses a federation document from a file.
func Load(path string) (*Federation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fedfile: %w", err)
	}
	return Parse(data)
}

// Parse builds a federation from a JSON document: schemas, integration,
// objects (with referential-integrity checking) and derived mapping tables.
func Parse(data []byte) (*Federation, error) {
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("fedfile: parse: %w", err)
	}
	if len(doc.Sites) == 0 {
		return nil, fmt.Errorf("fedfile: no sites declared")
	}
	if len(doc.Global) == 0 {
		return nil, fmt.Errorf("fedfile: no global classes declared")
	}

	fed := &Federation{
		Schemas:   make(map[object.SiteID]*schema.Schema, len(doc.Sites)),
		Databases: make(map[object.SiteID]*store.Database, len(doc.Sites)),
	}

	siteNames := make([]string, 0, len(doc.Sites))
	for name := range doc.Sites {
		siteNames = append(siteNames, name)
	}
	sort.Strings(siteNames)

	for _, name := range siteNames {
		site := object.SiteID(name)
		siteDoc := doc.Sites[name]
		s := schema.NewSchema(site)

		classNames := make([]string, 0, len(siteDoc.Classes))
		for cn := range siteDoc.Classes {
			classNames = append(classNames, cn)
		}
		sort.Strings(classNames)
		for _, cn := range classNames {
			cls, err := buildClass(cn, siteDoc.Classes[cn])
			if err != nil {
				return nil, fmt.Errorf("fedfile: site %s: %w", name, err)
			}
			if err := s.AddClass(cls); err != nil {
				return nil, fmt.Errorf("fedfile: %w", err)
			}
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("fedfile: site %s: %w", name, err)
		}
		fed.Schemas[site] = s

		db, err := store.NewDatabase(s)
		if err != nil {
			return nil, fmt.Errorf("fedfile: %w", err)
		}
		for _, od := range siteDoc.Objects {
			o, err := buildObject(od, s.Class(od.Class))
			if err != nil {
				return nil, fmt.Errorf("fedfile: site %s object %s: %w", name, od.ID, err)
			}
			if err := db.Insert(o); err != nil {
				return nil, fmt.Errorf("fedfile: site %s: %w", name, err)
			}
		}
		if err := db.CheckRefs(); err != nil {
			return nil, fmt.Errorf("fedfile: site %s: %w", name, err)
		}
		fed.Databases[site] = db
	}

	corrs := make([]schema.Correspondence, len(doc.Global))
	for i, g := range doc.Global {
		corrs[i] = schema.Correspondence{GlobalClass: g.Class}
		for _, m := range g.Members {
			corrs[i].Members = append(corrs[i].Members,
				schema.Constituent{Site: object.SiteID(m.Site), Class: m.Class})
		}
	}
	global, err := schema.Integrate(fed.Schemas, corrs)
	if err != nil {
		return nil, fmt.Errorf("fedfile: %w", err)
	}
	fed.Global = global

	tables, err := isomer.Identify(global, fed.Databases)
	if err != nil {
		return nil, fmt.Errorf("fedfile: %w", err)
	}
	fed.Tables = tables
	return fed, nil
}

func buildClass(name string, doc ClassDoc) (*schema.Class, error) {
	attrs := make([]schema.Attribute, 0, len(doc.Attrs))
	for _, a := range doc.Attrs {
		switch {
		case a.Class != "" && a.Type != "":
			return nil, fmt.Errorf("class %s attribute %s: both type and class given", name, a.Name)
		case a.Class != "":
			attrs = append(attrs, schema.Attribute{Name: a.Name, Domain: a.Class, MultiValued: a.Multi})
		default:
			kind, err := kindOf(a.Type)
			if err != nil {
				return nil, fmt.Errorf("class %s attribute %s: %w", name, a.Name, err)
			}
			attrs = append(attrs, schema.Attribute{Name: a.Name, Prim: kind, MultiValued: a.Multi})
		}
	}
	return schema.NewClass(name, attrs, doc.Key...)
}

func kindOf(t string) (object.Kind, error) {
	switch t {
	case "int":
		return object.KindInt, nil
	case "float":
		return object.KindFloat, nil
	case "string":
		return object.KindString, nil
	case "bool":
		return object.KindBool, nil
	default:
		return 0, fmt.Errorf("unknown primitive type %q", t)
	}
}

// buildObject decodes an object's attributes, a number by the kind its
// class declares; a class or attribute the schema lacks is left for the
// store to reject. JSON null is missing data: the attribute is left out.
func buildObject(doc ObjectDoc, class *schema.Class) (*object.Object, error) {
	attrs := make(map[string]object.Value, len(doc.Attrs))
	for name, raw := range doc.Attrs {
		var kind object.Kind
		if class != nil {
			a, _ := class.Attr(name)
			kind = a.Prim
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var any interface{}
		err := dec.Decode(&any)
		v := object.Value{}
		if err == nil {
			v, err = fromAny(any, kind)
		}
		if err != nil {
			return nil, fmt.Errorf("attribute %s: %w", name, err)
		}
		if v.Kind() != 0 {
			attrs[name] = v
		}
	}
	return object.New(object.LOid(doc.ID), doc.Class, attrs), nil
}

func fromAny(any interface{}, kind object.Kind) (object.Value, error) {
	switch v := any.(type) {
	case nil:
		return object.Value{}, nil
	case bool:
		return object.Bool(v), nil
	case json.Number:
		if kind != object.KindFloat {
			if i, err := v.Int64(); err == nil {
				return object.Int(i), nil
			}
		}
		f, err := v.Float64()
		if err != nil {
			return object.Value{}, fmt.Errorf("number %s: %w", v, err)
		}
		return object.Float(f), nil
	case string:
		return object.Str(v), nil
	case map[string]interface{}:
		ref, ok := v["$ref"].(string)
		if !ok || len(v) != 1 {
			return object.Value{}, fmt.Errorf("objects must be {\"$ref\": \"loid\"}, got %v", v)
		}
		return object.Ref(object.LOid(ref)), nil
	case []interface{}:
		elems := make([]object.Value, 0, len(v))
		for _, e := range v {
			ev, err := fromAny(e, kind)
			if err != nil {
				return object.Value{}, err
			}
			if ev.Kind() != 0 {
				elems = append(elems, ev)
			}
		}
		return object.List(elems...), nil
	default:
		return object.Value{}, fmt.Errorf("unsupported JSON value %T", any)
	}
}

// Export renders a federation back into the document form (inverse of
// Parse, up to attribute ordering). Mapping tables are not exported — they
// are re-derived on load.
func Export(schemas map[object.SiteID]*schema.Schema, global *schema.Global,
	dbs map[object.SiteID]*store.Database) ([]byte, error) {
	doc := Document{Sites: make(map[string]SiteDoc, len(schemas))}

	for site, s := range schemas {
		sd := SiteDoc{Classes: make(map[string]ClassDoc)}
		for _, cn := range s.ClassNames() {
			cls := s.Class(cn)
			cd := ClassDoc{Key: cls.Key}
			for _, a := range cls.Attrs {
				ad := AttrDoc{Name: a.Name, Multi: a.MultiValued}
				if a.IsComplex() {
					ad.Class = a.Domain
				} else {
					ad.Type = a.Prim.String()
				}
				cd.Attrs = append(cd.Attrs, ad)
			}
			sd.Classes[cn] = cd

			var exportErr error
			dbs[site].Extent(cn).Scan(func(o *object.Object) bool {
				od := ObjectDoc{ID: string(o.LOid), Class: o.Class,
					Attrs: make(map[string]json.RawMessage, o.Len())}
				for i := 0; i < o.Len(); i++ {
					name, v := o.At(i)
					raw, err := encodeValue(v)
					if err != nil {
						exportErr = err
						return false
					}
					od.Attrs[name] = raw
				}
				sd.Objects = append(sd.Objects, od)
				return true
			})
			if exportErr != nil {
				return nil, fmt.Errorf("fedfile: export: %w", exportErr)
			}
		}
		doc.Sites[string(site)] = sd
	}

	for _, gn := range global.ClassNames() {
		gc := global.Class(gn)
		gd := GlobalClassDoc{Class: gn}
		for _, site := range gc.Sites() {
			gd.Members = append(gd.Members, ConstituentDoc{
				Site: string(site), Class: gc.Constituents[site]})
		}
		doc.Global = append(doc.Global, gd)
	}
	return json.MarshalIndent(doc, "", "  ")
}

func encodeValue(v object.Value) (json.RawMessage, error) {
	switch v.Kind() {
	case object.KindInt:
		return json.Marshal(v.Int64())
	case object.KindFloat:
		return json.Marshal(v.Float64())
	case object.KindString:
		return json.Marshal(v.Text())
	case object.KindBool:
		return json.Marshal(v.BoolVal())
	case object.KindRef:
		return json.Marshal(map[string]string{"$ref": string(v.RefLOid())})
	case object.KindList:
		parts := make([]json.RawMessage, 0, len(v.Elems()))
		for _, e := range v.Elems() {
			raw, err := encodeValue(e)
			if err != nil {
				return nil, err
			}
			parts = append(parts, raw)
		}
		return json.Marshal(parts)
	default:
		return nil, fmt.Errorf("unencodable value kind %s", v.Kind())
	}
}
