package federation

import (
	"slices"

	"github.com/hetfed/hetfed/internal/eval"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/tvl"
)

// Workspace is the storage one query's steps at one site build their results
// in: PL's navigation state, the local rows with their verdicts, targets and
// unsolved items, the check items bound for each peer, and a check reply's
// verdicts. A step's result is cut from it and stays valid until Release, so
// the workspace is released when the result's last reader is done — at a TCP
// site once the reply frame is sent, in process once the global site has
// built the answer (the rows' unsolved items share the bound query's
// *query.Point, and certification reads the rows themselves).
//
// Site.Workspace hands out recycled workspaces: a query's arrays are sized
// from the extent, and the site's next query finds them grown to fit. One
// step sequence uses a workspace at a time; it is not safe for concurrent
// use. A race-detector build poisons what Release returns, so a read after
// Release sees rows named released instead of the next query's.
type Workspace struct {
	site *Site
	nav  Navigation
	// rows, and the verdicts and targets they are cut from.
	rows     []LocalRow
	verdicts []tvl.Truth
	targets  []object.Value
	col      collector
	// checked is CheckAssistants' reply.
	checked []CheckVerdict
	// EvalLocalBasic's survivors, their unsolved points and items.
	survivors       []survivor
	found, unsolved []eval.Unsolved
	items           []UnsolvedItem
}

// Workspace returns a workspace for one query's steps at this site, recycled
// from an earlier query's when one has been released.
func (s *Site) Workspace() *Workspace {
	if ws, ok := s.workspaces.Get().(*Workspace); ok {
		return ws
	}
	return &Workspace{site: s}
}

// Release returns the workspace to its site. Nothing cut from it may be read
// afterwards.
func (ws *Workspace) Release() {
	if raceEnabled {
		ws.poison()
	}
	ws.site.workspaces.Put(ws)
}

// released names what a poisoned workspace holds.
const released = "released"

// poison overwrites every element the workspace has handed out.
func (ws *Workspace) poison() {
	gone := object.Str(released)
	poisonAll(ws.rows, LocalRow{LOid: released, GOid: released})
	poisonAll(ws.verdicts, 0xff)
	poisonAll(ws.targets, gone)
	poisonAll(ws.nav.items, UnsolvedItem{ItemGOid: released})
	poisonAll(ws.items, UnsolvedItem{ItemGOid: released})
	poisonAll(ws.checked, CheckVerdict{ItemGOid: released})
	poisonAll(ws.col.synth, CheckVerdict{ItemGOid: released})
	for _, l := range ws.col.lists {
		poisonAll(l, CheckItem{Assistant: released, ItemGOid: released})
	}
	poisonAll(ws.nav.navs, navigated{})
	poisonAll(ws.nav.outcomes, eval.Outcome{Verdict: 0xff})
}

// poisonAll sets every element up to buf's capacity to v.
func poisonAll[T any](buf []T, v T) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = v
	}
}

// reuse returns buf emptied, with room for n elements.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// cut extends *buf by n zeroed elements and returns those, capped. When the
// array has no room it grows, and what earlier cuts returned stays in the old
// one: a caller that cuts on after that reslices its results at the end.
func cut[T any](buf *[]T, n int) []T {
	l := len(*buf)
	*buf = slices.Grow(*buf, n)[:l+n]
	out := (*buf)[l : l+n : l+n]
	clear(out)
	return out
}

// zeroed returns n zeroed elements, in buf's array when it has room.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// collector accumulates deduplicated check items grouped by target site,
// plus the check verdicts synthesized locally from signature probes.
//
// Checks are deduplicated where they arise, at the unsolved item: an item's
// check items are a function of its entity and point alone, and the isomeric
// objects of different entities are different objects, so a repeated item —
// a branch object several root objects refer to — would queue exactly the
// check items its first occurrence did. Each item collected so far is
// remembered, by its entity number, with the CPU operations its signature
// probes were charged; a repeat is charged the same again, as the model has
// every occurrence probe afresh. An item the table does not number goes by a
// Table.Unbound GOid, which no table lists locations for: it queues nothing
// and probes nothing, so there is nothing to remember.
//
// A collector lives in a workspace and keeps its arrays from one query to the
// next: a target's list, a point's item table.
type collector struct {
	// lists[i] holds the items bound for sites[i]; a site once met keeps its
	// slot, its list emptied by reset.
	sites  []object.SiteID
	lists  [][]CheckItem
	bySite map[object.SiteID][]CheckItem
	// points holds one record per point met, found by a scan: a query has a
	// handful.
	points []pointChecks
	synth  []CheckVerdict
}

// pointChecks is what a collector knows of one point: the items met, by the
// item class table's entity number, each slot the probe charge to replay
// plus one (0: not met); and the other sites that hold the suffix path.
type pointChecks struct {
	point   *query.Point
	probes  []int32
	targets []object.SiteID
}

// reset empties the collector for a query's step.
func (col *collector) reset() *collector {
	for i := range col.lists {
		col.lists[i] = col.lists[i][:0]
	}
	col.points = col.points[:0]
	col.synth = col.synth[:0]
	return col
}

// add queues a check item toward site.
func (col *collector) add(site object.SiteID, it CheckItem) {
	for i := range col.sites {
		if col.sites[i] == site {
			col.lists[i] = append(col.lists[i], it)
			return
		}
	}
	col.sites = append(col.sites, site)
	col.lists = append(col.lists, []CheckItem{it})
}

// checks returns the queued items by target site; a site with none is absent.
func (col *collector) checks() map[object.SiteID][]CheckItem {
	if col.bySite == nil {
		col.bySite = make(map[object.SiteID][]CheckItem, len(col.sites))
	}
	clear(col.bySite)
	for i, l := range col.lists {
		if len(l) > 0 {
			col.bySite[col.sites[i]] = l
		}
	}
	return col.bySite
}
