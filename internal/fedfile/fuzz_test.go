package fedfile

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from seedDocs")

// integralFloatsDoc gives float attributes integral values, which Parse
// used to store as ints.
const integralFloatsDoc = `{"sites": {"A": {
  "classes": {"Book": {"attrs": [
    {"name": "isbn", "type": "int"}, {"name": "rating", "type": "float"},
    {"name": "weights", "type": "float", "multi": true}], "key": ["isbn"]}},
  "objects": [
    {"id": "b1", "class": "Book", "attrs": {"isbn": 1, "rating": 4.0, "weights": [1, 2.5]}},
    {"id": "b2", "class": "Book", "attrs": {"isbn": 2, "rating": 4}}]}},
  "global": [{"class": "Book", "members": [{"site": "A", "class": "Book"}]}]}`

// bigKeyDoc holds an int key beyond float64's exact range, which Parse used
// to round through a float and reject.
const bigKeyDoc = `{"sites": {"A": {
  "classes": {"Book": {"attrs": [{"name": "isbn", "type": "int"}], "key": ["isbn"]}},
  "objects": [{"id": "b1", "class": "Book", "attrs": {"isbn": 10000000000000001}}]}},
  "global": [{"class": "Book", "members": [{"site": "A", "class": "Book"}]}]}`

// TestParseTypesNumbersByDeclaredKind: a number takes its attribute's
// declared kind, not the kind its value looks like — so a float with an
// integral value survives Export → Parse as a float, a large int key is
// exact, and a fraction in an int attribute is still refused.
func TestParseTypesNumbersByDeclaredKind(t *testing.T) {
	fed, err := Parse([]byte(integralFloatsDoc))
	if err != nil {
		t.Fatal(err)
	}
	books := fed.Databases["A"].Extent("Book")
	for id, want := range map[object.LOid]object.Value{
		"b1": object.Float(4), "b2": object.Float(4),
	} {
		if got := books.Get(id).Attr("rating"); got.Kind() != object.KindFloat || !got.Equal(want) {
			t.Errorf("%s rating = %v (%s), want the float 4", id, got, got.Kind())
		}
	}
	if w := books.Get("b1").Attr("weights").Elems(); len(w) != 2 || w[0].Kind() != object.KindFloat {
		t.Errorf("b1 weights = %v, want two floats", w)
	}
	if got, want := describe(t, fed), describe(t, reparse(t, fed)); got != want {
		t.Errorf("Export → Parse changed the federation:\n%s\nbecame\n%s", got, want)
	}

	fed, err = Parse([]byte(bigKeyDoc))
	if err != nil {
		t.Fatalf("an int key of 17 digits: %v", err)
	}
	if got := fed.Databases["A"].Extent("Book").Get("b1").Attr("isbn"); !got.Equal(object.Int(10000000000000001)) {
		t.Errorf("isbn = %v, want 10000000000000001", got)
	}

	fraction := strings.Replace(bigKeyDoc, "10000000000000001", "2.5", 1)
	if _, err := Parse([]byte(fraction)); err == nil || !strings.Contains(err.Error(), "want int, got float") {
		t.Errorf("a fraction in an int attribute: err = %v, want the store's refusal", err)
	}
}

// reparse is Export → Parse.
func reparse(t *testing.T, fed *Federation) *Federation {
	t.Helper()
	data, err := Export(fed.Schemas, fed.Global, fed.Databases)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	again, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse(Export) = %v for\n%s", err, data)
	}
	return again
}

// describe renders a federation's classes, global classes and objects —
// every value with its kind — in one canonical order.
func describe(t *testing.T, fed *Federation) string {
	var b strings.Builder
	sites := make([]string, 0, len(fed.Schemas))
	for site := range fed.Schemas {
		sites = append(sites, string(site))
	}
	sort.Strings(sites)
	for _, site := range sites {
		s, db := fed.Schemas[object.SiteID(site)], fed.Databases[object.SiteID(site)]
		for _, cn := range s.ClassNames() {
			cls := s.Class(cn)
			fmt.Fprintf(&b, "%s.%s key %v:", site, cn, cls.Key)
			for _, a := range cls.Attrs {
				fmt.Fprintf(&b, " %s(%s%s multi=%v)", a.Name, a.Prim, a.Domain, a.MultiValued)
			}
			b.WriteString("\n")
			var objs []string
			db.Extent(cn).Scan(func(o *object.Object) bool {
				attrs := make([]string, 0, o.Len())
				for _, name := range o.AttrNames() {
					attrs = append(attrs, name+"="+describeValue(t, o.Attr(name)))
				}
				sort.Strings(attrs)
				objs = append(objs, fmt.Sprintf("  %q %s\n", o.LOid, strings.Join(attrs, " ")))
				return true
			})
			sort.Strings(objs)
			b.WriteString(strings.Join(objs, ""))
		}
	}
	for _, gn := range fed.Global.ClassNames() {
		fmt.Fprintf(&b, "global %s %v\n", gn, fed.Global.Class(gn).Constituents)
	}
	return b.String()
}

func describeValue(t *testing.T, v object.Value) string {
	if v.Kind() == object.KindList {
		elems := make([]string, 0, len(v.Elems()))
		for _, e := range v.Elems() {
			elems = append(elems, describeValue(t, e))
		}
		return "[" + strings.Join(elems, ",") + "]"
	}
	raw, err := encodeValue(v)
	if err != nil {
		t.Fatalf("an accepted value does not encode: %v", err)
	}
	return v.Kind().String() + ":" + string(raw)
}

// seedDocs are the package's sample document, the school federation's
// export and the two documents Parse used to type by value.
func seedDocs(t testing.TB) [][]byte {
	fx := school.New()
	export, err := Export(fx.Schemas, fx.Global, fx.Databases)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{[]byte(sampleDoc), export, []byte(integralFloatsDoc), []byte(bigKeyDoc)}
}

// FuzzParseFederation: whatever document Parse accepts survives Export →
// Parse with the same classes, global classes, LOids, value kinds and
// values. Seeds: testdata/fuzz, pinned to seedDocs by
// TestFuzzCorpusIsCurrent.
func FuzzParseFederation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fed, err := Parse(data)
		if err != nil {
			return
		}
		if got, want := describe(t, reparse(t, fed)), describe(t, fed); got != want {
			t.Fatalf("Export → Parse changed the federation:\n%s\nbecame\n%s", want, got)
		}
	})
}

// TestFuzzCorpusIsCurrent pins the committed seed corpus to seedDocs
// (go test ./internal/fedfile -run TestFuzzCorpusIsCurrent -update-corpus).
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseFederation")
	docs := seedDocs(t)
	for i, doc := range docs {
		file := filepath.Join(dir, fmt.Sprintf("seed-%d", i+1))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", doc)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != want {
			t.Errorf("%s: seed %d is not current (%v; run with -update-corpus)", file, i+1, err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(docs) {
		t.Errorf("%s holds %d seeds, seedDocs has %d", dir, len(files), len(docs))
	}
}
