package fedfile

import (
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
)

const sampleDoc = `{
  "sites": {
    "A": {
      "classes": {
        "Book": {
          "attrs": [
            {"name": "isbn", "type": "int"},
            {"name": "title", "type": "string"},
            {"name": "pages", "type": "int"},
            {"name": "author", "class": "Author"},
            {"name": "tags", "type": "string", "multi": true}
          ],
          "key": ["isbn"]
        },
        "Author": {
          "attrs": [{"name": "name", "type": "string"}],
          "key": ["name"]
        }
      },
      "objects": [
        {"id": "a1", "class": "Author", "attrs": {"name": "Le Guin"}},
        {"id": "b1", "class": "Book", "attrs": {
          "isbn": 1, "title": "Dispossessed", "pages": 341,
          "author": {"$ref": "a1"}, "tags": ["sf", "classic"]
        }},
        {"id": "b2", "class": "Book", "attrs": {
          "isbn": 2, "title": "Unknown Pages", "pages": null,
          "author": {"$ref": "a1"}
        }}
      ]
    },
    "B": {
      "classes": {
        "Book": {
          "attrs": [
            {"name": "isbn", "type": "int"},
            {"name": "title", "type": "string"},
            {"name": "rating", "type": "float"}
          ],
          "key": ["isbn"]
        }
      },
      "objects": [
        {"id": "x2", "class": "Book", "attrs": {"isbn": 2, "title": "Unknown Pages", "rating": 4.5}}
      ]
    }
  },
  "global": [
    {"class": "Book", "members": [
      {"site": "A", "class": "Book"}, {"site": "B", "class": "Book"}
    ]},
    {"class": "Author", "members": [{"site": "A", "class": "Author"}]}
  ]
}`

func TestParseSample(t *testing.T) {
	fed, err := Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(fed.Databases) != 2 {
		t.Fatalf("databases = %d", len(fed.Databases))
	}
	book := fed.Global.Class("Book")
	if book == nil || !book.Has("rating") || !book.Has("author") {
		t.Fatalf("global Book = %+v", book)
	}
	if got := book.MissingAttrs("B"); len(got) != 3 { // author, pages, tags
		t.Errorf("missing at B = %v", got)
	}
	// Isomerism: isbn 2 exists at both sites.
	books := fed.Tables.Table("Book")
	goid, _ := books.GOidOf("A", "b2")
	if locs := books.Locations(goid); len(locs) != 2 || locs[1].Site != "B" || locs[1].LOid != "x2" {
		t.Errorf("isomeric objects of b2 = %v", locs)
	}
	// Values decoded correctly.
	b1, _ := fed.Databases["A"].Deref("b1")
	if !b1.Attr("pages").Equal(object.Int(341)) {
		t.Errorf("pages = %v", b1.Attr("pages"))
	}
	if b1.Attr("tags").Kind() != object.KindList {
		t.Errorf("tags = %v", b1.Attr("tags"))
	}
	b2, _ := fed.Databases["A"].Deref("b2")
	if !b2.Attr("pages").IsNull() {
		t.Errorf("null pages = %v", b2.Attr("pages"))
	}
	x2, _ := fed.Databases["B"].Deref("x2")
	if !x2.Attr("rating").Equal(object.Float(4.5)) {
		t.Errorf("rating = %v", x2.Attr("rating"))
	}
}

// TestParsedFederationAnswersQueries runs the three strategies over a
// loaded federation: the missing pages of isbn 2 stay missing (maybe), the
// rating predicate is resolved through the isomeric record at B.
func TestParsedFederationAnswersQueries(t *testing.T) {
	fed, err := Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := exec.New(exec.Config{
		Global:      fed.Global,
		Coordinator: "G",
		Databases:   fed.Databases,
		Tables:      fed.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := query.MustBind(query.MustParse(
		`select title from Book where pages > 100 and rating > 4`), fed.Global)
	for _, alg := range exec.Algorithms() {
		ans, _, err := engine.Run(fabric.NewReal(fabric.DefaultRates()), alg, b)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// b1: pages 341 true, rating missing everywhere -> maybe.
		// b2: pages null everywhere -> unknown; rating 4.5 via B -> maybe.
		if len(ans.Certain) != 0 || len(ans.Maybe) != 2 {
			t.Errorf("%v: certain=%v maybe=%v", alg, ans.Certain, ans.Maybe)
		}
	}
}

// TestExportRoundTripSchool exports the paper's school federation and loads
// it back; Q1 must still produce the paper's answer.
func TestExportRoundTripSchool(t *testing.T) {
	fx := school.New()
	data, err := Export(fx.Schemas, fx.Global, fx.Databases)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	fed, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse(exported): %v", err)
	}
	engine, err := exec.New(exec.Config{
		Global:      fed.Global,
		Coordinator: "G",
		Databases:   fed.Databases,
		Tables:      fed.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := query.MustBind(query.MustParse(school.Q1), fed.Global)
	for _, alg := range exec.Algorithms() {
		ans, _, err := engine.Run(fabric.NewReal(fabric.DefaultRates()), alg, b)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// GOids are re-derived by isomerism identification, so compare the
		// target values rather than identifiers.
		if len(ans.Certain) != 1 || !ans.Certain[0].Targets[0].Equal(object.Str("Hedy")) {
			t.Errorf("%v certain = %v", alg, ans.Certain)
		}
		if len(ans.Maybe) != 1 || !ans.Maybe[0].Targets[0].Equal(object.Str("Tony")) {
			t.Errorf("%v maybe = %v", alg, ans.Maybe)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"bad json", `{`, "parse"},
		{"no sites", `{"global":[{"class":"X","members":[]}]}`, "no sites"},
		{"no global", `{"sites":{"A":{"classes":{},"objects":[]}}}`, "no global"},
		{"bad type", `{"sites":{"A":{"classes":{"C":{"attrs":[{"name":"x","type":"blob"}]}},"objects":[]}},
			"global":[{"class":"C","members":[{"site":"A","class":"C"}]}]}`, "unknown primitive"},
		{"type and class", `{"sites":{"A":{"classes":{"C":{"attrs":[{"name":"x","type":"int","class":"D"}]}},"objects":[]}},
			"global":[{"class":"C","members":[{"site":"A","class":"C"}]}]}`, "both type and class"},
		{"dangling ref", `{"sites":{"A":{"classes":{
			"C":{"attrs":[{"name":"d","class":"D"}]},
			"D":{"attrs":[{"name":"x","type":"int"}]}},
			"objects":[{"id":"c1","class":"C","attrs":{"d":{"$ref":"ghost"}}}]}},
			"global":[{"class":"C","members":[{"site":"A","class":"C"}]},
			          {"class":"D","members":[{"site":"A","class":"D"}]}]}`, "missing object"},
		{"bad ref object", `{"sites":{"A":{"classes":{"C":{"attrs":[{"name":"d","class":"C"}]}},
			"objects":[{"id":"c1","class":"C","attrs":{"d":{"wat":1}}}]}},
			"global":[{"class":"C","members":[{"site":"A","class":"C"}]}]}`, "$ref"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/federation.json"); err == nil {
		t.Error("missing file accepted")
	}
}
