// Package query implements the SQL/X-like global query language of the
// paper: single-range-class queries whose predicates are nested (path)
// predicates combined in conjunctive form, e.g.
//
//	select name, advisor.name from Student
//	where address.city = "Taipei" and advisor.speciality = "database"
//	  and advisor.department.name = "CS"
//
// The package provides the AST, a parser, a binder that validates a query
// against the integrated global schema, and the local-query derivation used
// by the localized execution strategies (the Q1 → Q1'/Q1” step of the
// paper's Figure 3).
package query

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hetfed/hetfed/internal/object"
)

// Op is a comparison operator of a predicate.
type Op int

// Comparison operators.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the operator's source form.
func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Path is a path expression: attribute names navigated from the range class
// through the class composition hierarchy.
type Path []string

// String renders the path in dotted form.
func (p Path) String() string { return strings.Join(p, ".") }

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Suffix returns the path from step i on.
func (p Path) Suffix(i int) Path { return append(Path(nil), p[i:]...) }

// Predicate is one nested predicate: a path compared against a literal.
type Predicate struct {
	Path    Path
	Op      Op
	Literal object.Value
}

// String renders the predicate in source form: Parse reads it back as the
// same predicate. A query's text is the key of every bound-plan table and
// what a coordinator sends to the sites.
func (pr Predicate) String() string {
	return fmt.Sprintf("%s %s %s", pr.Path, pr.Op, literalSource(pr.Literal))
}

// literalSource renders a literal in the lexer's syntax, not Go's. A float
// is digits, a dot, digits: no exponent, and never without the dot, which
// would read back as an integer. A string escapes the quote and the backslash
// only: the lexer's escape is "the next byte, literally", so \n reads back n.
func literalSource(v object.Value) string {
	switch v.Kind() {
	case object.KindFloat:
		s := strconv.FormatFloat(v.Float64(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case object.KindString:
		return `"` + stringEscaper.Replace(v.String()) + `"`
	}
	return v.String()
}

var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// Equal reports whether two predicates are identical.
func (pr Predicate) Equal(o Predicate) bool {
	return pr.Path.Equal(o.Path) && pr.Op == o.Op && pr.Literal.Equal(o.Literal) &&
		pr.Literal.Kind() == o.Literal.Kind()
}

// Query is a parsed global query: a target list, a range class, and
// predicates in disjunctive normal form. Preds is the flat predicate list;
// Groups partitions it into the disjuncts (each group is a conjunction, the
// groups are combined by or). A nil Groups means one conjunction of all
// predicates — the paper's core query class; multi-group queries implement
// the disjunctive extension of the paper's Section 5.
type Query struct {
	Targets []Path
	Range   string
	Preds   []Predicate
	Groups  [][]int
}

// GroupIdx returns the disjuncts as predicate-index groups; a query without
// explicit groups is a single conjunction of every predicate.
func (q *Query) GroupIdx() [][]int {
	if len(q.Groups) > 0 {
		return q.Groups
	}
	all := make([]int, len(q.Preds))
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// String renders the query in source form.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	for i, t := range q.Targets {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(" from ")
	b.WriteString(q.Range)
	if len(q.Preds) > 0 {
		b.WriteString(" where ")
		for gi, group := range q.GroupIdx() {
			if gi > 0 {
				b.WriteString(" or ")
			}
			for pi, idx := range group {
				if pi > 0 {
					b.WriteString(" and ")
				}
				b.WriteString(q.Preds[idx].String())
			}
		}
	}
	return b.String()
}
