package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/tvl"
)

// BoundPath is a path validated against the global schema.
type BoundPath struct {
	Path Path
	// Classes[i] is the global class of the object that evaluates step i;
	// Classes[0] is the range class. len(Classes) == len(Path).
	Classes []string
	// Attr is the attribute reached by the final step.
	Attr schema.Attribute
}

// BoundPredicate is a predicate whose path and literal have been validated.
type BoundPredicate struct {
	BoundPath
	Op      Op
	Literal object.Value
	// points[k] describes the predicate left unsolved at depth k. Bind fills
	// it for a query's predicates; BindPredicateAt leaves it nil.
	points []Point
}

// Predicate reconstructs the plain AST predicate.
func (bp BoundPredicate) Predicate() Predicate {
	return Predicate{Path: bp.Path, Op: bp.Op, Literal: bp.Literal}
}

// Point is one place a query predicate can be left unsolved: the data went
// missing at some depth of its path, on an object of class ItemClass, and
// what remains to be evaluated there (or on the object's assistants at other
// sites) is Suffix. A query has at most one point per path step of each
// predicate. Bind builds them all, once; navigation, check items, the wire
// and certification then refer to a point by pointer instead of carrying
// their own copy of the predicate. A Point is immutable: a *Bound, and with
// it its points, is shared by every site goroutine evaluating the query.
type Point struct {
	// ItemClass is the global class of the object lacking the data.
	ItemClass string
	// Suffix is the unsolved predicate, rooted at ItemClass. Its path is a
	// sub-slice of the bound predicate's path.
	Suffix Predicate
	// SourceIdx is the index of the originating predicate in the bound
	// query's predicate list.
	SourceIdx int
}

// Point returns the predicate's unsolved point at the given depth of its
// path, 0 <= depth < len(Path). A predicate bound outside a query
// (BindPredicateAt) carries none and gets a fresh one, with source index 0,
// on every call.
func (bp *BoundPredicate) Point(depth int) *Point {
	if bp.points != nil {
		return &bp.points[depth]
	}
	pt := bp.pointAt(depth, 0)
	return &pt
}

func (bp *BoundPredicate) pointAt(depth, sourceIdx int) Point {
	// The suffix path is capped, so appending to it cannot reach into the
	// bound path.
	path := bp.Path[depth:len(bp.Path):len(bp.Path)]
	return Point{
		ItemClass: bp.Classes[depth],
		Suffix:    Predicate{Path: path, Op: bp.Op, Literal: bp.Literal},
		SourceIdx: sourceIdx,
	}
}

// Bound is a query validated against the global schema. It carries the
// resolved path metadata the execution strategies need: the classes each
// predicate traverses and per-site attribute availability.
//
// A Bound is immutable once Bind returns and is shared by every site
// goroutine and request evaluating the query; what they would otherwise
// recompute per object or per request — the predicate groups, the involved
// attributes — is derived here, once.
type Bound struct {
	Query   *Query
	Global  *schema.Global
	Targets []BoundPath
	Preds   []BoundPredicate

	groups   [][]int      // Query.GroupIdx()
	involved []ClassAttrs // see Involved
}

// ClassAttrs names the attributes of one global class that a query touches.
type ClassAttrs struct {
	Class string
	Attrs []string // sorted, free of repeats
}

// Bind validates a query against the global schema: the range class exists,
// every path resolves through the composition hierarchy, every predicate
// ends in a primitive attribute, and literal types match attribute types.
func Bind(q *Query, g *schema.Global) (*Bound, error) {
	root := g.Class(q.Range)
	if root == nil {
		return nil, fmt.Errorf("bind: unknown global class %q", q.Range)
	}
	b := &Bound{Query: q, Global: g}

	for _, t := range q.Targets {
		bp, err := bindPath(g, q.Range, t)
		if err != nil {
			return nil, fmt.Errorf("bind target: %w", err)
		}
		b.Targets = append(b.Targets, bp)
	}
	for _, pr := range q.Preds {
		bp, err := bindPath(g, q.Range, pr.Path)
		if err != nil {
			return nil, fmt.Errorf("bind predicate: %w", err)
		}
		if bp.Attr.IsComplex() {
			return nil, fmt.Errorf("bind predicate %s: path ends in complex attribute %s", pr, bp.Attr.Name)
		}
		if err := checkLiteral(bp.Attr, pr.Op, pr.Literal); err != nil {
			return nil, fmt.Errorf("bind predicate %s: %w", pr, err)
		}
		pred := BoundPredicate{BoundPath: bp, Op: pr.Op, Literal: pr.Literal}
		pred.points = make([]Point, len(pred.Path))
		for depth := range pred.points {
			pred.points[depth] = pred.pointAt(depth, len(b.Preds))
		}
		b.Preds = append(b.Preds, pred)
	}
	b.groups = q.GroupIdx()
	b.involved = involvedAttrs(b)
	return b, nil
}

// BindPredicateAt validates a predicate rooted at an arbitrary global class
// (rather than a query's range class). The localized strategies use it to
// bind the suffix predicates checked against assistant objects.
func BindPredicateAt(g *schema.Global, class string, pr Predicate) (BoundPredicate, error) {
	bp, err := bindPath(g, class, pr.Path)
	if err != nil {
		return BoundPredicate{}, fmt.Errorf("bind predicate at %s: %w", class, err)
	}
	if bp.Attr.IsComplex() {
		return BoundPredicate{}, fmt.Errorf("bind predicate at %s: path ends in complex attribute", class)
	}
	if err := checkLiteral(bp.Attr, pr.Op, pr.Literal); err != nil {
		return BoundPredicate{}, fmt.Errorf("bind predicate at %s: %w", class, err)
	}
	return BoundPredicate{BoundPath: bp, Op: pr.Op, Literal: pr.Literal}, nil
}

// MustBind is Bind that panics on error; intended for fixtures and tests.
func MustBind(q *Query, g *schema.Global) *Bound {
	b, err := Bind(q, g)
	if err != nil {
		panic(err)
	}
	return b
}

func bindPath(g *schema.Global, root string, p Path) (BoundPath, error) {
	if len(p) == 0 {
		return BoundPath{}, fmt.Errorf("empty path on class %s", root)
	}
	bp := BoundPath{Path: p, Classes: make([]string, len(p))}
	cur := root
	for i, step := range p {
		c := g.Class(cur)
		if c == nil {
			return BoundPath{}, fmt.Errorf("path %s: unknown class %q", p, cur)
		}
		a, ok := c.Attr(step)
		if !ok {
			return BoundPath{}, fmt.Errorf("path %s: class %s has no attribute %q", p, cur, step)
		}
		bp.Classes[i] = cur
		if i == len(p)-1 {
			bp.Attr = a
			return bp, nil
		}
		if !a.IsComplex() {
			return BoundPath{}, fmt.Errorf("path %s: attribute %s.%s is primitive mid-path", p, cur, step)
		}
		cur = a.Domain
	}
	panic("unreachable")
}

func checkLiteral(a schema.Attribute, op Op, lit object.Value) error {
	switch a.Prim {
	case object.KindInt, object.KindFloat:
		if lit.Kind() != object.KindInt && lit.Kind() != object.KindFloat {
			return fmt.Errorf("numeric attribute compared with %s literal", lit.Kind())
		}
	case object.KindString:
		if lit.Kind() != object.KindString {
			return fmt.Errorf("string attribute compared with %s literal", lit.Kind())
		}
	case object.KindBool:
		if lit.Kind() != object.KindBool {
			return fmt.Errorf("bool attribute compared with %s literal", lit.Kind())
		}
		if op != OpEq && op != OpNe {
			return fmt.Errorf("bool attribute only supports = and !=")
		}
	}
	return nil
}

// Fold combines per-predicate truth values (aligned with Preds) into the
// object's classification under the query's disjunctive normal form: the
// Kleene disjunction over groups of the conjunction within each group.
func (b *Bound) Fold(verdicts []tvl.Truth) tvl.Truth {
	result := tvl.False
	for _, group := range b.groups {
		g := tvl.True
		for _, i := range group {
			v := verdicts[i]
			if v == 0 {
				v = tvl.Unknown // unevaluated predicates carry no information
			}
			g = tvl.And(g, v)
			if g == tvl.False {
				break
			}
		}
		result = tvl.Or(result, g)
		if result == tvl.True {
			return tvl.True
		}
	}
	return result
}

// Conjunctive reports whether the query is a single conjunction (the
// paper's core class).
func (b *Bound) Conjunctive() bool { return len(b.groups) == 1 }

// BranchClasses returns the global classes reached through complex steps of
// any target or predicate path (the query's branch classes), sorted.
func (b *Bound) BranchClasses() []string {
	seen := map[string]bool{}
	add := func(bp BoundPath) {
		for i, class := range bp.Classes {
			if i > 0 {
				seen[class] = true
			}
		}
		if bp.Attr.IsComplex() {
			seen[bp.Attr.Domain] = true
		}
	}
	for _, t := range b.Targets {
		add(t)
	}
	for _, p := range b.Preds {
		add(p.BoundPath)
	}
	delete(seen, b.Query.Range)
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Classes returns the range class followed by the branch classes.
func (b *Bound) Classes() []string {
	return append([]string{b.Query.Range}, b.BranchClasses()...)
}

// RootSites returns the sites holding a constituent of the range class,
// sorted. These are the sites that receive local queries.
func (b *Bound) RootSites() []object.SiteID {
	return b.Global.Class(b.Query.Range).Sites()
}

// InvolvedSites returns every site holding a constituent of any involved
// class, sorted. These are the sites the centralized approach pulls from.
func (b *Bound) InvolvedSites() []object.SiteID {
	seen := map[object.SiteID]bool{}
	for _, class := range b.Classes() {
		for _, s := range b.Global.Class(class).Sites() {
			seen[s] = true
		}
	}
	out := make([]object.SiteID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Involved returns, per involved global class in class-name order, the
// attribute names the query touches, sorted: the projection the centralized
// approach ships a class's objects through. The range class additionally
// includes complex attributes used mid-path so references can be followed
// after integration. The result is the bound query's own and is read-only.
func (b *Bound) Involved() []ClassAttrs { return b.involved }

func involvedAttrs(b *Bound) []ClassAttrs {
	// A query touches a handful of classes and attributes: scanning the
	// result for a name beats hashing it.
	var out []ClassAttrs
	walk := func(bp BoundPath) {
		for i, attr := range bp.Path {
			class := bp.Classes[i]
			at := slices.IndexFunc(out, func(c ClassAttrs) bool { return c.Class == class })
			if at < 0 {
				at = len(out)
				out = append(out, ClassAttrs{Class: class})
			}
			if !slices.Contains(out[at].Attrs, attr) {
				out[at].Attrs = append(out[at].Attrs, attr)
			}
		}
	}
	for _, t := range b.Targets {
		walk(t)
	}
	for _, p := range b.Preds {
		walk(p.BoundPath)
	}
	for i := range out {
		slices.Sort(out[i].Attrs)
	}
	slices.SortFunc(out, func(a, b ClassAttrs) int { return strings.Compare(a.Class, b.Class) })
	return out
}
