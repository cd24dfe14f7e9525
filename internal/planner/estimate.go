package planner

import (
	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
)

// Estimate is the predicted cost of one strategy.
type Estimate struct {
	Alg exec.Algorithm
	// TotalMicros predicts the total execution time (summed work).
	TotalMicros float64
	// ResponseMicros predicts the response time (critical path).
	ResponseMicros float64
	// Details attributes TotalMicros per site and phase (O object location,
	// I integration, P predicate processing); coordinator-side work is filed
	// under the coordinator's own ID. The attribution is the cost model's, so
	// EXPLAIN ANALYZE can lay it against a measured Breakdown row for row.
	Details *cost.Breakdown
}

// estimator prices one bound query's strategies, charging each site's work
// at the calibrator's rates for that site and filing coordinator work under
// the calibrator's coordinator.
type estimator struct {
	cat *Catalog
	b   *query.Bound
	cal *calibrator
}

// rates returns the site's cost parameters.
func (e *estimator) rates(site object.SiteID) fabric.Rates {
	return e.cal.siteRates(site)
}

func (e *estimator) extent(class string, site object.SiteID) ExtentStats {
	return e.cat.Extents[schema.Constituent{Site: site, Class: class}]
}

// selectivity estimates P(predicate true | value present) from the final
// attribute's statistics at the given site, falling back to 1/3 when no
// statistics apply.
func (e *estimator) selectivity(bp query.BoundPredicate, site object.SiteID) float64 {
	const fallback = 1.0 / 3
	finalClass := bp.Classes[len(bp.Classes)-1]
	ext := e.extent(finalClass, site)
	s, ok := ext.Attrs[bp.Path[len(bp.Path)-1]]
	if !ok || s.NonNull == 0 {
		return fallback
	}
	switch bp.Op {
	case query.OpEq:
		if s.Distinct > 0 {
			return 1 / float64(s.Distinct)
		}
		return fallback
	case query.OpNe:
		if s.Distinct > 0 {
			return 1 - 1/float64(s.Distinct)
		}
		// Complement of the = fallback: with no statistics, != keeps what =
		// would drop.
		return 1 - fallback
	case query.OpLt, query.OpLe, query.OpGt, query.OpGe:
		if !s.Numeric || s.Max <= s.Min {
			return fallback
		}
		var lit float64
		switch bp.Literal.Kind() {
		case object.KindInt:
			lit = float64(bp.Literal.Int64())
		case object.KindFloat:
			lit = bp.Literal.Float64()
		default:
			return fallback
		}
		frac := min(max((lit-s.Min)/(s.Max-s.Min), 0), 1)
		if bp.Op == query.OpGt || bp.Op == query.OpGe {
			return 1 - frac
		}
		return frac
	default:
		return fallback
	}
}

// unknownProb estimates P(predicate unknown at site): one when some step is
// a missing attribute of the site's constituent classes, otherwise the
// union of the per-step null fractions.
func (e *estimator) unknownProb(bp query.BoundPredicate, site object.SiteID) float64 {
	known := 1.0
	for i, step := range bp.Path {
		gc := e.cat.Global.Class(bp.Classes[i])
		if !gc.Holds(site, step) {
			return 1
		}
		known *= 1 - e.extent(bp.Classes[i], site).NullFraction(step)
	}
	return min(max(1-known, 0), 1)
}

// surviveProb estimates P(object survives the predicate locally): unknown
// or true.
func (e *estimator) surviveProb(bp query.BoundPredicate, site object.SiteID) float64 {
	u := e.unknownProb(bp, site)
	return min(max(u+(1-u)*e.selectivity(bp, site), 0), 1)
}

// branchDiskBytes estimates the disk bytes of dereferencing branch objects
// for a set of predicates: the buffer pool reads each distinct branch
// object at most once per local query, so every branch class on any
// predicate path is charged once, bounded by the root cardinality.
func (e *estimator) branchDiskBytes(preds []query.BoundPredicate, site object.SiteID, rootObjects int) float64 {
	touchedClasses := map[string]bool{}
	for _, bp := range preds {
		for i := 1; i < len(bp.Classes); i++ {
			// Only classes reachable before the first missing step are
			// actually dereferenced.
			if j, missing := e.firstMissing(bp, site); missing && i > j {
				break
			}
			touchedClasses[bp.Classes[i]] = true
		}
	}
	var bytes float64
	for class := range touchedClasses {
		branch := e.extent(class, site)
		touched := min(float64(rootObjects), float64(branch.Objects))
		bytes += touched * branch.AvgObjectBytes()
	}
	return bytes
}

// firstMissing returns the first path step that is a missing attribute of
// the site's constituent classes.
func (e *estimator) firstMissing(bp query.BoundPredicate, site object.SiteID) (int, bool) {
	for i, step := range bp.Path {
		if !e.cat.Global.Class(bp.Classes[i]).Holds(site, step) {
			return i, true
		}
	}
	return 0, false
}

// assistantsPerItem estimates how many assistant objects one unsolved item
// of the class has (isomeric copies at other sites).
func (e *estimator) assistantsPerItem(class string) float64 {
	cs := e.cat.Classes[class]
	if cs.AvgCopies > 1 {
		return cs.AvgCopies - 1
	}
	return 0
}

// suffixHeldProb estimates the probability a random other site can evaluate
// the unsolved suffix of a predicate (every remaining step held there) —
// checks are only dispatched to such sites.
func (e *estimator) suffixHeldProb(bp query.BoundPredicate, site object.SiteID) float64 {
	j, missing := e.firstMissing(bp, site)
	if !missing {
		// Runtime null: the suffix starts at the final step.
		j = len(bp.Path) - 1
	}
	prob := 1.0
	for i := j; i < len(bp.Path); i++ {
		gc := e.cat.Global.Class(bp.Classes[i])
		sites := gc.Sites()
		if len(sites) == 0 {
			return 0
		}
		holding := 0
		for _, s := range sites {
			if gc.Holds(s, bp.Path[i]) {
				holding++
			}
		}
		prob *= float64(holding) / float64(len(sites))
	}
	return prob
}

// itemClassOf returns the class of the unsolved item a predicate produces
// at a site (the class at the first missing step, or the final class for
// runtime nulls).
func (e *estimator) itemClassOf(bp query.BoundPredicate, site object.SiteID) string {
	for i, step := range bp.Path {
		gc := e.cat.Global.Class(bp.Classes[i])
		if !gc.Holds(site, step) {
			return bp.Classes[i]
		}
	}
	return bp.Classes[len(bp.Classes)-1]
}

// ca estimates the centralized approach.
func (e *estimator) ca() Estimate {
	var (
		totalWork   float64 // µs across all resources
		maxSiteTime float64 // slowest site's local phase
		netMicros   float64 // serialized shared-medium time
		details     cost.Breakdown
	)
	involved := e.b.Involved()
	for _, site := range e.b.InvolvedSites() {
		rates := e.rates(site)
		var disk, cpu, net float64
		net += federation.RequestOverhead
		for _, in := range involved {
			class, attrs := in.Class, in.Attrs
			ext := e.extent(class, site)
			if ext.Objects == 0 {
				continue
			}
			disk += float64(ext.Bytes)
			cpu += float64(ext.Objects)
			// Projected reply: LOid plus the involved attributes that are
			// present.
			per := float64(object.LOidWireSize)
			for _, a := range attrs {
				s := ext.Attrs[a]
				ga, _ := e.cat.Global.Class(class).Attr(a)
				size := float64(object.AttrWireSize)
				if ga.IsComplex() {
					size = object.LOidWireSize
				}
				if ext.Objects > 0 {
					per += size * float64(s.NonNull) / float64(ext.Objects)
				}
			}
			net += float64(ext.Objects) * per
		}
		siteTime := disk*rates.DiskPerByte + cpu*rates.CPUPerOp
		totalWork += siteTime
		maxSiteTime = max(maxSiteTime, siteTime)
		// Shipping is charged under the shipping site's network rate — a
		// site behind a slow link is slow to ship regardless of the peer.
		netMicros += net * rates.NetPerByte
		// Under CA a site's whole contribution is object retrieval — the O
		// phase — including shipping its projection to the coordinator.
		details.AddEstimate(string(site), "O", siteTime+net*rates.NetPerByte)
	}

	// Coordinator: materialization (a lookup plus per-attribute merges per
	// shipped object) and central evaluation.
	var materializeCPU, evalCPU float64
	for _, site := range e.b.InvolvedSites() {
		for _, in := range involved {
			class, attrs := in.Class, in.Attrs
			ext := e.extent(class, site)
			materializeCPU += float64(ext.Objects) * float64(1+len(attrs))
		}
	}
	rootEntities := float64(e.cat.Classes[e.b.Query.Range].Entities)
	for _, bp := range e.b.Preds {
		evalCPU += rootEntities * (float64(len(bp.Path)) + 1)
	}
	coord := e.rates(e.cal.coord)
	coordMicros := (materializeCPU + evalCPU) * coord.CPUPerOp
	details.AddEstimate(string(e.cal.coord), "I", materializeCPU*coord.CPUPerOp)
	details.AddEstimate(string(e.cal.coord), "P", evalCPU*coord.CPUPerOp)

	return Estimate{
		Alg:            exec.CA,
		TotalMicros:    totalWork + netMicros + coordMicros,
		ResponseMicros: maxSiteTime + netMicros + coordMicros,
		Details:        &details,
	}
}

// localized estimates BL or PL; they differ in whose items are checked
// (survivors vs. every object) and in the check/evaluation overlap.
func (e *estimator) localized(alg exec.Algorithm) Estimate {
	var (
		totalWork   float64
		maxSiteTime float64
		netMicros   float64
		coordCPU    float64
		maxCheckRTT float64
		details     cost.Breakdown
		resultBytes float64
	)
	for _, site := range e.b.RootSites() {
		rates := e.rates(site)
		root := e.extent(e.b.Query.Range, site)
		n := float64(root.Objects)

		// Split the predicates as the site will: local (every step held)
		// versus removed (unsolved for every object).
		var local, removed []query.BoundPredicate
		for _, bp := range e.b.Preds {
			if _, missing := e.firstMissing(bp, site); missing {
				removed = append(removed, bp)
			} else {
				local = append(local, bp)
			}
		}

		// Local evaluation work. Under BL the conjunction short-circuits:
		// predicate j is evaluated only on objects that survived the
		// previous ones; under PL every path is navigated for every object
		// in phase O.
		disk := float64(root.Bytes)
		var cpu float64
		survive := 1.0
		var unsolvedPerRow float64 // expected unsolved entries per surviving row
		var checkItems float64     // expected check items per carrier object
		reach := 1.0
		for _, bp := range local {
			steps := float64(len(bp.Path)) + 1
			if alg == exec.BL {
				cpu += n * reach * steps
			} else {
				cpu += n * steps
			}
			u := e.unknownProb(bp, site)
			sp := e.surviveProb(bp, site)
			reach *= sp
			survive *= sp
			// Conditional on surviving, the predicate is unknown with
			// probability u / (u + (1-u)·sel).
			condU := u
			if sp > 0 {
				condU = u / sp
			}
			unsolvedPerRow += condU
			checkItems += condU * e.assistantsPerItem(e.itemClassOf(bp, site)) *
				e.suffixHeldProb(bp, site)
		}
		survivors := n * survive
		for _, bp := range removed {
			j, _ := e.firstMissing(bp, site)
			steps := float64(j) + 1
			if alg == exec.BL {
				cpu += survivors * steps // BL resolves items for survivors only
			} else {
				cpu += n * steps
			}
			unsolvedPerRow++
			checkItems += e.assistantsPerItem(e.itemClassOf(bp, site)) *
				e.suffixHeldProb(bp, site)
		}
		disk += e.branchDiskBytes(e.b.Preds, site, root.Objects)

		carriers := survivors // BL: checks only for surviving rows
		if alg == exec.PL {
			carriers = n // PL: checks for every object
		}
		checks := carriers * checkItems
		cpu += carriers * (unsolvedPerRow + 1) // item GOids + assistant lookups

		rowBytes := federation.RowIDWireSize +
			len(e.b.Targets)*object.AttrWireSize +
			len(e.b.Preds)*federation.VerdictWireSize
		resultNet := federation.RequestOverhead + survivors*(float64(rowBytes)+unsolvedPerRow*federation.UnsolvedWireSize)

		// Check processing at the target sites (disk + eval) and verdict
		// transfer to the coordinator. The estimator cannot name the target
		// sites (the mapping tables decide per object), so check work is
		// charged under the average rates of the OTHER root sites — the pool
		// the assistants live in.
		checkNet := checks * (federation.CheckItemWireSize + federation.CheckVerdictWireSize)
		avgAssistantBytes := root.AvgObjectBytes() // same order as the root class
		peer := e.peerRates(site)
		checkWork := checks * (avgAssistantBytes*peer.DiskPerByte + 3*peer.CPUPerOp)

		siteTime := disk*rates.DiskPerByte + cpu*rates.CPUPerOp
		totalWork += siteTime + checkWork
		netMicros += (resultNet + checkNet) * rates.NetPerByte
		resultBytes += resultNet

		// Attribution mirrors the executor's span phases. Under BL a site
		// runs one inseparable P+O step, so both phases carry its full local
		// time (the double attribution the measured side applies to
		// BL_C1+C2, the one "PO" span); under PL navigation (O) and
		// evaluation (P) are separate steps, split here by resource. Check
		// processing happens at assistant sites the estimator cannot name,
		// so it is filed under the dispatching site's O.
		checkMicros := checkWork + checkNet*rates.NetPerByte
		if alg == exec.BL {
			details.AddEstimate(string(site), "P", siteTime)
			details.AddEstimate(string(site), "O", siteTime+checkMicros)
		} else {
			details.AddEstimate(string(site), "P", cpu*rates.CPUPerOp)
			details.AddEstimate(string(site), "O", disk*rates.DiskPerByte+checkMicros)
		}

		switch alg {
		case exec.BL:
			// Checks happen after local evaluation.
			maxSiteTime = max(maxSiteTime, siteTime+checkWork)
		default:
			// PL overlaps checking with local evaluation.
			maxSiteTime = max(maxSiteTime, siteTime)
			maxCheckRTT = max(maxCheckRTT, checkWork)
		}

		coordCPU += survivors * float64(len(e.b.Preds)+1)
		coordCPU += checks
	}

	coord := e.rates(e.cal.coord)
	details.AddEstimate(string(e.cal.coord), "I", coordCPU*coord.CPUPerOp+resultBytes*coord.NetPerByte)
	resp := max(maxSiteTime, maxCheckRTT) + netMicros + coordCPU*coord.CPUPerOp
	return Estimate{
		Alg:            alg,
		TotalMicros:    totalWork + netMicros + coordCPU*coord.CPUPerOp,
		ResponseMicros: resp,
		Details:        &details,
	}
}

// peerRates averages the rates of the root sites other than the given one —
// the estimator's stand-in for unnamed check-target sites. With no other
// root site (or before any calibration) it degenerates to the site's own
// rates.
func (e *estimator) peerRates(site object.SiteID) fabric.Rates {
	var sum fabric.Rates
	n := 0
	for _, other := range e.b.RootSites() {
		if other == site {
			continue
		}
		r := e.rates(other)
		sum.DiskPerByte += r.DiskPerByte
		sum.NetPerByte += r.NetPerByte
		sum.CPUPerOp += r.CPUPerOp
		n++
	}
	if n == 0 {
		return e.rates(site)
	}
	return fabric.Rates{
		DiskPerByte: sum.DiskPerByte / float64(n),
		NetPerByte:  sum.NetPerByte / float64(n),
		CPUPerOp:    sum.CPUPerOp / float64(n),
	}
}
