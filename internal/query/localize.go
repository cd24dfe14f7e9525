package query

import (
	"fmt"
	"strings"

	"github.com/hetfed/hetfed/internal/object"
)

// UnsolvedSpec describes a predicate that cannot be evaluated at a site
// because some step of its path is a missing attribute of the site's
// constituent class. The localized strategies resolve it at runtime: the
// object reached by Prefix is the unsolved item, and Pred (rooted at the
// item's global class) is the unsolved predicate its assistant objects are
// checked against.
type UnsolvedSpec struct {
	// Prefix is the locally navigable part of the path; empty means the
	// range object itself is the unsolved item.
	Prefix Path
	// ItemClass is the global class of the unsolved item.
	ItemClass string
	// Pred is the unsolved predicate, rooted at ItemClass.
	Pred Predicate
	// Source is the original global predicate.
	Source Predicate
}

// LocalQuery is the query a component database evaluates on behalf of a
// global query: the paper's Q1 → Q1'/Q1” derivation. Predicates involving
// missing attributes of the site's constituent classes are moved from Local
// to Unsolved.
type LocalQuery struct {
	Site       object.SiteID
	GlobalRoot string
	// LocalRoot is the constituent class of the range class at Site.
	LocalRoot string
	Targets   []Path
	// Local are the predicates evaluable at this site (runtime null values
	// may still make them unknown on particular objects).
	Local []Predicate
	// Unsolved are the statically removed predicates.
	Unsolved []UnsolvedSpec
}

// String renders the local query in the style of the paper's Figure 3(b).
func (lq *LocalQuery) String() string {
	var b strings.Builder
	b.WriteString("select Oid")
	for _, t := range lq.Targets {
		b.WriteString(", ")
		b.WriteString(t.String())
	}
	for _, u := range lq.Unsolved {
		if len(u.Prefix) > 0 {
			b.WriteString(", ")
			b.WriteString(u.Prefix.String())
		}
	}
	fmt.Fprintf(&b, " from %s@%s", lq.LocalRoot, lq.Site)
	for i, p := range lq.Local {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		b.WriteString(p.String())
	}
	return b.String()
}

// Localize derives the local query for a site holding a constituent of the
// range class. A predicate is local when every step of its path is held by
// the constituent class at the site; otherwise it is unsolved there, split
// at the first missing step.
func (b *Bound) Localize(site object.SiteID) (*LocalQuery, error) {
	root := b.Global.Class(b.Query.Range)
	localRoot, ok := root.Constituents[site]
	if !ok {
		return nil, fmt.Errorf("localize: site %s holds no constituent of %s", site, b.Query.Range)
	}
	lq := &LocalQuery{
		Site:       site,
		GlobalRoot: b.Query.Range,
		LocalRoot:  localRoot,
		Targets:    b.Query.Targets,
	}
	for _, bp := range b.Preds {
		if j, missing := b.MissingStep(bp.BoundPath, site); missing {
			lq.Unsolved = append(lq.Unsolved, UnsolvedSpec{
				Prefix:    bp.Path[:j],
				ItemClass: bp.Classes[j],
				Pred:      Predicate{Path: bp.Path.Suffix(j), Op: bp.Op, Literal: bp.Literal},
				Source:    bp.Predicate(),
			})
			continue
		}
		lq.Local = append(lq.Local, bp.Predicate())
	}
	return lq, nil
}

// MissingStep returns the first step of the path whose attribute is a
// missing attribute of the constituent class at the site: the one rule for
// whether a site holds a path.
func (b *Bound) MissingStep(bp BoundPath, site object.SiteID) (int, bool) {
	for i, step := range bp.Path {
		if !b.Global.Class(bp.Classes[i]).Holds(site, step) {
			return i, true
		}
	}
	return 0, false
}

// LocalizeAll derives the local queries for every site holding a
// constituent of the range class, in site order.
func (b *Bound) LocalizeAll() []*LocalQuery {
	sites := b.RootSites()
	out := make([]*LocalQuery, 0, len(sites))
	for _, s := range sites {
		lq, err := b.Localize(s)
		if err != nil {
			// RootSites guarantees the constituent exists.
			panic(err)
		}
		out = append(out, lq)
	}
	return out
}
