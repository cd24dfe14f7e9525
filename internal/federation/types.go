// Package federation implements the distributed machinery of the paper's
// system: component-database sites that evaluate local queries and check
// assistant objects, and the global processing site (coordinator) that
// integrates constituent classes by outerjoin over GOids, merges local
// results from isomeric objects, and applies the certification rule to turn
// local maybe results into certain results or eliminate them.
//
// All operations charge their disk, CPU and network costs through package
// fabric, so the same code runs both for real and inside the discrete-event
// simulation.
package federation

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/tvl"
)

// The message-size model, in bytes: every WireSize below prices messages
// with these.
const (
	// RequestOverhead is a message's fixed envelope: a small control message
	// (a local query, a retrieve request) and every reply start with it.
	RequestOverhead = 64
	// PredicateWireSize is one predicate shipped in a message.
	PredicateWireSize = object.AttrWireSize
	// VerdictWireSize is one three-valued verdict plus its predicate index.
	VerdictWireSize = 8
	// RowIDWireSize is a local result row's identity: its LOid and GOid.
	RowIDWireSize = object.LOidWireSize + object.GOidWireSize
	// UnsolvedWireSize is one unsolved item of a row: its GOid and predicate.
	UnsolvedWireSize = object.GOidWireSize + PredicateWireSize
	// CheckItemWireSize is one check item: assistant LOid, item GOid and the
	// predicate.
	CheckItemWireSize = object.LOidWireSize + object.GOidWireSize + PredicateWireSize
	// CheckVerdictWireSize is one check verdict: the item's GOid and the
	// verdict.
	CheckVerdictWireSize = object.GOidWireSize + VerdictWireSize
)

// QueryWireSize models the transfer size of a query or local-query message:
// a fixed envelope plus the predicates and the target list.
func QueryWireSize(b *query.Bound) int {
	return RequestOverhead + PredicateWireSize*len(b.Preds) + object.AttrWireSize*len(b.Targets)
}

// ResultRow is one entity in a query answer: its GOid and the merged target
// values. Complex target values are global references.
type ResultRow struct {
	GOid    object.GOid
	Targets []object.Value
	// Unknown lists the indexes of the query predicates whose truth could
	// not be established for this entity — the reason a maybe result is
	// maybe. Empty for certain results. The centralized and localized
	// strategies report identical sets (tested).
	Unknown []int
}

// String renders the row for examples and diagnostics.
func (r ResultRow) String() string {
	parts := make([]string, len(r.Targets))
	for i, v := range r.Targets {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s(%s)", r.GOid, strings.Join(parts, ", "))
}

// SiteFailure records one component site that could not contribute to an
// answer, and why. An unreachable site is a coarser missingness mechanism
// than a null attribute: everything it would have contributed becomes
// unknown, so dependent results are maybe results with the failure as the
// recorded reason.
type SiteFailure struct {
	Site   object.SiteID
	Reason string
}

// String renders the failure for logs and diagnostics.
func (f SiteFailure) String() string {
	return fmt.Sprintf("%s: %s", f.Site, f.Reason)
}

// DivergenceFailure records a replica whose mapping tables for the given
// classes are suspect (its digests disagreed with a quorum of peers at the
// last anti-entropy round). The site is up and answering — but its GOid
// mappings for those classes may be stale, so everything resting on them
// is maybe: the same missingness mechanism as an unreachable site, scoped
// to classes instead of a whole site.
func DivergenceFailure(site object.SiteID, classes []string) SiteFailure {
	return SiteFailure{
		Site:   site,
		Reason: fmt.Sprintf("mapping divergence: suspect classes %s", strings.Join(classes, ",")),
	}
}

// Answer is the result of a global query: the certain results and, because
// of missing data, the maybe results. Rows are sorted by GOid.
type Answer struct {
	Certain []ResultRow
	Maybe   []ResultRow
	// Degraded marks a partial answer: one or more component sites were
	// unavailable, so results depending on their data are reported as
	// maybe (or missing, for entities stored only there) instead of the
	// query failing. The paper's maybe semantics extend to site failure:
	// what cannot be read cannot certify or eliminate.
	Degraded bool
	// Unavailable lists the sites that could not contribute, with reasons,
	// sorted by site. Empty unless Degraded.
	Unavailable []SiteFailure
	// Outcome records how the execution ended: OutcomeOK for a run that
	// completed, OutcomeCanceled when the caller cancelled it mid-flight,
	// OutcomeDeadline when its deadline expired. An interrupted query still
	// returns a sound partial answer — whatever certified before the cut
	// stays certain, everything pending stays maybe — exactly the degraded
	// semantics with the interruption as one more missingness mechanism.
	Outcome string
	// Stats summarizes how the answer came to be (observability; not part
	// of the paper's answer model).
	Stats AnswerStats
}

// Answer outcomes.
const (
	OutcomeOK       = ""         // run to completion
	OutcomeCanceled = "canceled" // caller cancelled mid-flight
	OutcomeDeadline = "deadline" // per-query deadline expired
)

// Interrupted reports whether the execution was cut short (cancelled or
// over deadline) rather than run to completion.
func (a *Answer) Interrupted() bool { return a.Outcome != OutcomeOK }

// Text renders the answer as the command lines print it: the interrupted and
// degraded notices, then the certain and the maybe rows. Given the bound
// query it answers, each maybe row is followed by the predicates it left
// unknown; with nil those lines are left out.
func (a *Answer) Text(b *query.Bound) string {
	var sb strings.Builder
	if a.Interrupted() {
		fmt.Fprintf(&sb, "INTERRUPTED (%s): sound partial answer\n", a.Outcome)
	}
	if a.Degraded {
		fmt.Fprintf(&sb, "DEGRADED: partial answer, %d site(s) unavailable:\n", len(a.Unavailable))
		for _, f := range a.Unavailable {
			fmt.Fprintf(&sb, "  %s\n", f)
		}
	}
	fmt.Fprintf(&sb, "certain results (%d):\n", len(a.Certain))
	for _, r := range a.Certain {
		fmt.Fprintf(&sb, "  %s\n", r)
	}
	fmt.Fprintf(&sb, "maybe results (%d):\n", len(a.Maybe))
	for _, r := range a.Maybe {
		fmt.Fprintf(&sb, "  %s\n", r)
		if b == nil || len(r.Unknown) == 0 {
			continue
		}
		parts := make([]string, len(r.Unknown))
		for i, p := range r.Unknown {
			parts[i] = b.Preds[p].Predicate().String()
		}
		fmt.Fprintf(&sb, "    unknown: %s\n", strings.Join(parts, "; "))
	}
	return sb.String()
}

// MarkDegraded records the given site failures on the answer, deduplicating
// by site (first reason wins) and keeping the list sorted. A no-op for an
// empty list.
func (a *Answer) MarkDegraded(failures []SiteFailure) {
	for _, f := range failures {
		dup := false
		for _, have := range a.Unavailable {
			if have.Site == f.Site {
				dup = true
				break
			}
		}
		if !dup {
			a.Unavailable = append(a.Unavailable, f)
		}
	}
	if len(a.Unavailable) > 0 {
		a.Degraded = true
		sort.Slice(a.Unavailable, func(i, j int) bool {
			return a.Unavailable[i].Site < a.Unavailable[j].Site
		})
	}
}

// AddMaybe appends maybe rows to the answer, keeping the maybe list sorted
// by GOid (used when degraded rows are synthesized after certification).
func (a *Answer) AddMaybe(rows ...ResultRow) {
	if len(rows) == 0 {
		return
	}
	a.Maybe = append(a.Maybe, rows...)
	sortRows(a.Maybe)
}

// AnswerStats is the certification breakdown of one query execution.
type AnswerStats struct {
	// LocalRows is the number of local result rows the coordinator
	// integrated (0 under the centralized approach, which integrates
	// objects, not rows).
	LocalRows int
	// Certified counts entities whose local evidence alone was inconclusive
	// but whom check verdicts certified into certain results.
	Certified int
	// Eliminated counts entities ruled out during integration: a root
	// object filtered by its own site's predicates, a violated check
	// verdict, or a false predicate fold.
	Eliminated int
	// CheckVerdicts is the number of assistant-check verdicts integrated
	// (remote replies plus local signature verdicts).
	CheckVerdicts int
}

// CertainGOids returns the certain entities' GOids.
func (a *Answer) CertainGOids() []object.GOid { return goids(a.Certain) }

// MaybeGOids returns the maybe entities' GOids.
func (a *Answer) MaybeGOids() []object.GOid { return goids(a.Maybe) }

func goids(rows []ResultRow) []object.GOid {
	out := make([]object.GOid, len(rows))
	for i, r := range rows {
		out[i] = r.GOid
	}
	return out
}

func sortRows(rows []ResultRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].GOid < rows[j].GOid })
}

// UnsolvedItem is an unsolved predicate of a local result row, attached to
// the global identity of the object lacking the data (the row's own entity
// or a nested item).
type UnsolvedItem struct {
	// ItemGOid identifies the unsolved item globally; check verdicts are
	// matched against it during certification.
	ItemGOid object.GOid
	// Point is the shared description of the unsolved predicate: ItemClass
	// (the item's global class), Suffix (the predicate rooted at it) and
	// SourceIdx (the originating global predicate). Items produced by a site
	// point into the bound query; items decoded from a frame into the
	// frame's point table.
	*query.Point
	// SelfItem marks that the item is the row's root object itself; its
	// assistants are covered by the other sites' local queries, so no
	// explicit check requests are sent for it.
	SelfItem bool
	// Multi marks items reached through multi-valued attributes (ANY
	// semantics: one violating assistant does not falsify the predicate).
	Multi bool
}

// LocalRow is one local result of a local query: a root object that
// satisfied the site's local predicates certainly (no Unsolved entries) or
// possibly (with Unsolved entries).
type LocalRow struct {
	LOid object.LOid
	GOid object.GOid
	// Targets holds the locally evaluated target values aligned with the
	// query's target list; unavailable values are null, complex values are
	// global references.
	Targets []object.Value
	// Verdicts holds the site's per-predicate truth values aligned with
	// the bound query's predicates. Rows never carry False (such objects
	// are eliminated locally and not returned).
	Verdicts []tvl.Truth
	// Unsolved lists the unsolved predicates with their items.
	Unsolved []UnsolvedItem
}

// WireSize models the row's transfer size: the OIDs, the projected target
// values, one verdict per predicate, and each unsolved item's identity and
// predicate.
func (r LocalRow) WireSize() int {
	n := RowIDWireSize
	for _, v := range r.Targets {
		n += v.WireSize()
	}
	n += VerdictWireSize*len(r.Verdicts) + UnsolvedWireSize*len(r.Unsolved)
	return n
}

// LocalResult is a site's reply to a local query.
type LocalResult struct {
	Site object.SiteID
	Rows []LocalRow
	// SigVerdicts are check verdicts synthesized from signature probes at
	// this site (the signature-assisted variants); they travel with the
	// local result instead of through check requests.
	SigVerdicts []CheckVerdict
}

// WireSize models the reply's transfer size.
func (lr LocalResult) WireSize() int {
	n := RequestOverhead
	for _, r := range lr.Rows {
		n += r.WireSize()
	}
	n += CheckVerdictWireSize * len(lr.SigVerdicts)
	return n
}

// CheckItem asks a site to evaluate an unsolved predicate on one assistant
// object it stores.
type CheckItem struct {
	// Assistant is the assistant object's LOid at the receiving site.
	Assistant object.LOid
	// ItemGOid is the global identity of the unsolved item being certified
	// (the assistant is one of its isomeric objects).
	ItemGOid object.GOid
	// Point is the unsolved item's point: ItemClass, Suffix and SourceIdx,
	// shared with every other item of the same predicate and depth. An item
	// off the wire may carry none; it yields no verdict.
	*query.Point
}

// CheckRequest is the batch of check items one site sends to another.
type CheckRequest struct {
	From  object.SiteID
	Items []CheckItem
}

// WireSize models the request's transfer size.
func (cr CheckRequest) WireSize() int {
	return RequestOverhead + CheckItemWireSize*len(cr.Items)
}

// CheckVerdict is the outcome of evaluating an unsolved predicate on one
// assistant object: True (the assistant satisfies it), False (the assistant
// violates it) or Unknown (the assistant also lacks the data).
//
// SuffixLen distinguishes unsolved points of the same predicate that stop
// at the same item through different path depths (possible in cyclic
// composition hierarchies), which evaluate different suffix predicates.
type CheckVerdict struct {
	ItemGOid  object.GOid
	SourceIdx int
	SuffixLen int
	Verdict   tvl.Truth
}

// CheckReply is a site's reply to a CheckRequest, routed to the global
// processing site for certification.
type CheckReply struct {
	Site     object.SiteID
	Verdicts []CheckVerdict
}

// WireSize models the reply's transfer size.
func (cr CheckReply) WireSize() int {
	return RequestOverhead + CheckVerdictWireSize*len(cr.Verdicts)
}

// ClassObjects is one global class's constituent objects shipped by a site
// to the global processing site (the centralized approach), projected on
// Attrs. The projection is not carried out: Objects may hold more than Attrs
// names, and every reader — the wire encoder, WireSize, Materialize — reads
// an object through Attrs (object.Object.Projected), so what lies outside the
// mask is never shipped, charged or merged. The objects are one extent's, of
// one local class: on the wire the list names GlobalClass, Attrs and that
// class once, and each object travels as its LOid and the values it holds
// among Attrs (object.AppendMasked).
//
// A reply built by Site.Retrieve points at the store's own objects, and is
// read after the lock that guarded the scan is gone (a served reply is
// encoded once the request has been dispatched). That is sound because a
// store never edits an object after inserting it; accordingly nothing
// reachable from a reply may be Set. The slice of pointers is the reply's
// own. A reply decoded off the wire holds objects cut from one slab, already
// restricted to Attrs, their entries named by Attrs' own strings and their
// Class the list's, so the mask passes all of them; nobody else holds them,
// and the decoder marks the list Owned.
type ClassObjects struct {
	GlobalClass string
	// Attrs is the projection: the attributes the objects are read through,
	// sorted by name.
	Attrs []string
	// Objects are the constituent objects, read-only unless Owned.
	Objects []*object.Object
	// Owned marks objects nobody else holds: the Materialize the list is
	// passed to consumes it, turning its objects into view objects in place,
	// and the list must not be read afterwards.
	Owned bool
}

// RetrieveReply is a site's reply to the centralized approach's retrieve
// request.
type RetrieveReply struct {
	Site    object.SiteID
	Classes []ClassObjects
}

// WireSize models the reply's transfer size: each object ships its LOid and
// its projected attributes.
func (rr RetrieveReply) WireSize() int {
	n := RequestOverhead
	for _, c := range rr.Classes {
		for _, o := range c.Objects {
			n += o.WireSize(c.Attrs)
		}
	}
	return n
}
