package query

import "testing"

// FuzzParseQuery: the query grammar every command line feeds never panics,
// and rendering is the inverse of parsing — whatever Parse accepts, String
// renders to text Parse accepts again as the same query, literal kinds
// included, and renders identically. The text is the plan key at both ends
// of the wire. Seeds: testdata/fuzz; seed-17 to seed-20 are the literal
// forms %q and strconv's 'g' used to render outside the lexer's syntax.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders %q, which parses and renders %q", src, text, got)
		}
		if len(again.Targets) != len(q.Targets) || again.Range != q.Range ||
			len(again.Preds) != len(q.Preds) || len(again.GroupIdx()) != len(q.GroupIdx()) {
			t.Fatalf("Parse(%q) renders %q, which parses to another shape: %+v vs %+v", src, text, again, q)
		}
		for i := range q.Preds {
			if !again.Preds[i].Equal(q.Preds[i]) {
				t.Fatalf("Parse(%q) renders %q, whose predicate %d reads back as %v (%v), was %v (%v)", src, text, i,
					again.Preds[i], again.Preds[i].Literal.Kind(), q.Preds[i], q.Preds[i].Literal.Kind())
			}
		}
	})
}
