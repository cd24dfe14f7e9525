// Package planner chooses an execution strategy for a global query by
// estimating each strategy's cost from catalog statistics — the decision
// layer a federated system built on the paper's strategies needs, informed
// directly by the paper's findings: BL wins in general, CA is insensitive
// to selectivity, PL's overhead grows with the number of databases and the
// isomerism ratio. It owns the whole decision: catalog → estimate →
// calibrate → choose.
//
// The catalog summarizes each constituent class (extent size, per-attribute
// value ranges, null fractions) and each global class's isomerism; the
// estimator mirrors the cost model of package fabric analytically, without
// touching the data. A Selector prices CA, BL and PL per query and picks the
// cheapest. It starts from the paper's Table 1 rates — a selector that has
// observed nothing is the static planner — and re-rates each site from
// finished queries' measured profiles: the profile records the microseconds
// a site spent (Profile.Phases) and the events it performed (Profile.IO), and
// their ratio over the time Table 1 would predict is the site's observed
// slowdown. Heterogeneous federations drift from any fixed constants. The
// choice is by predicted time alone: a site the query could not reach makes
// its data missing, which changes the maybe rows, not which plan is cheapest.
package planner

import (
	"math"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/store"
)

// AttrStats summarizes one attribute of one constituent class.
type AttrStats struct {
	// NonNull is the number of objects with a value for the attribute.
	NonNull int
	// Distinct approximates the number of distinct values.
	Distinct int
	// Min and Max bound numeric values (valid when Numeric).
	Min, Max float64
	Numeric  bool
}

// ExtentStats summarizes one constituent class at one site.
type ExtentStats struct {
	// Objects is the extent's cardinality.
	Objects int
	// Bytes is the total stored size under the cost model.
	Bytes int
	// Attrs holds per-attribute statistics.
	Attrs map[string]AttrStats
}

// AvgObjectBytes returns the average stored object size.
func (e ExtentStats) AvgObjectBytes() float64 {
	if e.Objects == 0 {
		return 0
	}
	return float64(e.Bytes) / float64(e.Objects)
}

// NullFraction returns the fraction of objects whose attribute is null
// (including class-level missing attributes, for which it is 1).
func (e ExtentStats) NullFraction(attr string) float64 {
	if e.Objects == 0 {
		return 0
	}
	s, ok := e.Attrs[attr]
	if !ok {
		return 1
	}
	return 1 - float64(s.NonNull)/float64(e.Objects)
}

// ClassStats summarizes one global class across the federation.
type ClassStats struct {
	// Entities is the number of distinct real-world entities.
	Entities int
	// AvgCopies is the average number of stored isomeric objects per
	// entity (the paper's N_iso).
	AvgCopies float64
	// IsomericRatio is the fraction of entities stored at more than one
	// site (the paper's R_iso).
	IsomericRatio float64
}

// Catalog is the statistics snapshot the estimator works from.
type Catalog struct {
	Global  *schema.Global
	Extents map[schema.Constituent]ExtentStats
	Classes map[string]ClassStats
}

// BuildCatalog scans the federation once and gathers the statistics.
func BuildCatalog(global *schema.Global, dbs map[object.SiteID]*store.Database, tables *gmap.Tables) *Catalog {
	cat := &Catalog{
		Global:  global,
		Extents: make(map[schema.Constituent]ExtentStats),
		Classes: make(map[string]ClassStats, len(global.ClassNames())),
	}
	for _, className := range global.ClassNames() {
		gc := global.Class(className)
		for site, localName := range gc.Constituents {
			db := dbs[site]
			if db == nil {
				continue
			}
			ext := db.Extent(localName)
			if ext == nil {
				continue
			}
			cat.Extents[schema.Constituent{Site: site, Class: className}] = scanExtent(ext)
		}
		table := tables.Table(className)
		cs := ClassStats{Entities: table.Len()}
		if cs.Entities > 0 {
			iso := 0
			for _, g := range table.GOids() {
				if len(table.Locations(g)) > 1 {
					iso++
				}
			}
			cs.AvgCopies = float64(table.Bindings()) / float64(cs.Entities)
			cs.IsomericRatio = float64(iso) / float64(cs.Entities)
		}
		cat.Classes[className] = cs
	}
	return cat
}

func scanExtent(ext *store.Extent) ExtentStats {
	stats := ExtentStats{Attrs: make(map[string]AttrStats)}
	distinct := make(map[string]map[string]bool)
	ext.Scan(func(o *object.Object) bool {
		stats.Objects++
		stats.Bytes += o.WireSize(nil)
		for i := 0; i < o.Len(); i++ {
			name, v := o.At(i)
			s := stats.Attrs[name]
			s.NonNull++
			switch v.Kind() {
			case object.KindInt:
				updateNumeric(&s, float64(v.Int64()))
			case object.KindFloat:
				updateNumeric(&s, v.Float64())
			}
			d := distinct[name]
			if d == nil {
				d = make(map[string]bool)
				distinct[name] = d
			}
			if len(d) < 10_000 { // cap the sketch
				d[v.String()] = true
			}
			stats.Attrs[name] = s
		}
		return true
	})
	for name, d := range distinct {
		s := stats.Attrs[name]
		s.Distinct = len(d)
		stats.Attrs[name] = s
	}
	return stats
}

func updateNumeric(s *AttrStats, v float64) {
	if !s.Numeric {
		s.Numeric = true
		s.Min, s.Max = v, v
		return
	}
	s.Min = math.Min(s.Min, v)
	s.Max = math.Max(s.Max, v)
}
