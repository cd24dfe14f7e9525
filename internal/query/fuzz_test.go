package query

import (
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/hetfed/hetfed/internal/object"
)

// FuzzParseQuery: the query grammar every command line feeds never panics,
// and rendering is a fixed point of parsing — whatever Parse accepts, String
// renders to text Parse accepts again as the same query and renders
// identically. Seeds: testdata/fuzz.
//
// Two literal forms are outside the property, because String (which this
// change may not touch) does not render them in the lexer's syntax: a float
// strconv prints without a dot or with an exponent (1.0 renders 1 and comes
// back an integer, -0.0 renders -0 and comes back 0, 0.00001 renders 1e-05
// and does not parse — the lexer's float is digits, a dot, digits), and a
// string holding a byte %q escapes other than the quote and the backslash
// (the lexer's escape is "the next byte, literally", so "\n" comes back as
// "n"). ROADMAP item 2(c) records both.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		for _, p := range q.Preds {
			switch lit := p.Literal; lit.Kind() {
			case object.KindFloat:
				if s := lit.String(); !strings.Contains(s, ".") || strings.Contains(s, "e") {
					return
				}
			case object.KindString:
				s := lit.String()
				if !utf8.ValidString(s) || strings.ContainsFunc(s, func(r rune) bool { return !strconv.IsPrint(r) }) {
					return
				}
			}
		}
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
	})
}
