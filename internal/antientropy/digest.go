// Package antientropy implements digest-based replica repair for the
// replicated GOid mapping tables: every federation process (each site
// server and the coordinator) holds one Replica, which maintains an
// incremental per-class digest of its tables, exchanges digests with its
// peers, and streams only the divergent binding ranges to converge —
// symmetric peer repair that works after either end of a link was
// partitioned, killed, or restarted from stale durable state. The package
// has no transport and no clock: the owner supplies the function that
// carries a message to a peer (Send) and decides when rounds run, so the
// tests drive whole networks of replicas on one goroutine from a seed.
//
// The digest is a fixed-depth hash tree: each class's bindings are hashed
// into one of Buckets leaf buckets (by the top bits of the binding hash),
// and each bucket folds its members with XOR — an order-independent,
// incrementally maintainable summary updated in O(1) per binding. Two
// replicas disagree exactly on the buckets whose folds differ, so repair
// ships only the bindings hashing into those buckets instead of the whole
// table.
//
// Soundness under divergence: a replica that knows its digest disagrees
// with a quorum of its peers marks the affected classes suspect. Answers
// touching a suspect class degrade (federation.Answer.Degraded) the same
// way answers touching a dead site do — divergence is a missingness
// mechanism, and the paper's partial-answer semantics already carry it.
package antientropy

import (
	"sort"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
)

// Buckets is the leaf fan-out of the digest hash tree. 64 buckets keep a
// digest at 520 bytes on the wire while dividing a divergent class's
// repair traffic by the same factor; the tree is one level deep because
// mapping tables are small relative to the objects they map (ROADMAP
// item 5's sharded tables can deepen it without changing the protocol).
const Buckets = 64

// bucketShift extracts the bucket index from the top bits of a binding
// hash (64 - log2(Buckets)).
const bucketShift = 58

// Digest summarizes one class's mapping-table replica: the number of
// bindings folded in, plus the XOR fold of each bucket's binding hashes.
// The zero value is the digest of an empty table, so a class absent on one
// replica compares equal to the same class empty on another. Digests are
// comparable with Equal and travel as fixed-width words on the wire.
type Digest struct {
	Count uint64
	Sum   [Buckets]uint64
}

// Add folds one binding into the digest in O(1).
func (d *Digest) Add(goid object.GOid, site object.SiteID, loid object.LOid) {
	h := bindingHash(goid, site, loid)
	d.Sum[h>>bucketShift] ^= h
	d.Count++
}

// Equal reports whether two digests summarize identical binding sets
// (up to XOR collisions, which the Count guard makes vanishingly
// unlikely for real divergence: a dropped delta changes both).
func (d Digest) Equal(o Digest) bool {
	return d == o
}

// DiffBuckets returns the bucket indexes on which the two digests
// disagree, sorted. Equal digests yield nil.
func DiffBuckets(a, b Digest) []int {
	var out []int
	for i := range a.Sum {
		if a.Sum[i] != b.Sum[i] {
			out = append(out, i)
		}
	}
	if out == nil && a.Count != b.Count {
		// Same folds, different counts: an XOR-canceling double-apply.
		// Repair every bucket; idempotent application sorts it out.
		out = make([]int, Buckets)
		for i := range out {
			out[i] = i
		}
	}
	return out
}

// DiffClasses returns the classes on which two per-class digest maps
// disagree, sorted: classes present in either map whose digests are not
// Equal (a missing class is the zero digest, so an empty table and an
// absent one agree).
func DiffClasses(a, b map[string]Digest) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	check := func(class string) {
		if seen[class] {
			return
		}
		seen[class] = true
		if !a[class].Equal(b[class]) {
			out = append(out, class)
		}
	}
	for class := range a {
		check(class)
	}
	for class := range b {
		check(class)
	}
	sort.Strings(out)
	return out
}

// Binding is one mapping-table entry in repair traffic, class implied by
// the enclosing request.
type Binding struct {
	GOid object.GOid
	Site object.SiteID
	LOid object.LOid
}

// BucketBindings returns the table's bindings hashing into the given
// bucket set, sorted by (GOid, Site) — the divergent ranges a repair
// exchange ships. The caller must hold whatever lock guards the table
// against concurrent mutation.
func BucketBindings(t *gmap.Table, buckets []int) []Binding {
	if len(buckets) == 0 {
		return nil
	}
	want := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		want[b] = true
	}
	var out []Binding
	for _, goid := range t.GOids() {
		for _, loc := range t.Locations(goid) {
			h := bindingHash(goid, loc.Site, loc.LOid)
			if want[int(h>>bucketShift)] {
				out = append(out, Binding{GOid: goid, Site: loc.Site, LOid: loc.LOid})
			}
		}
	}
	return out
}

// FNV-1a 64 parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// bindingHash hashes one binding (FNV-1a over its fields with
// separators). The class is NOT part of the hash: digests are per class
// already, and keeping it out lets one binding hash serve bucket routing
// for every class's tree.
func bindingHash(goid object.GOid, site object.SiteID, loid object.LOid) uint64 {
	h := uint64(fnvOffset)
	fold := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
		h ^= 0xff // separator: ("ab","c") must not collide with ("a","bc")
		h *= fnvPrime
	}
	fold(string(goid))
	fold(string(site))
	fold(string(loid))
	return h
}
