package federation

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
)

// localizedInputs runs BL's or PL's site steps at every root site of the
// fixture, and the checks they ask of the other sites, and returns what the
// global site certifies: the local results and the check replies, in site
// order. dead leaves out one root site's result and every check it asked or
// answered, as a run with that site down would.
func localizedInputs(t testing.TB, fx sitePathFixture, alg string, dead object.SiteID) ([]LocalResult, []CheckReply) {
	t.Helper()
	sites := fx.sites()
	var (
		results []LocalResult
		replies []CheckReply
	)
	for _, id := range fx.bound.RootSites() {
		if id == dead {
			continue
		}
		var (
			res    LocalResult
			checks map[object.SiteID][]CheckItem
		)
		onReal(t, func(p fabric.Proc) {
			if alg == "BL" {
				res, checks = sites[id].EvalLocalBasic(p, fx.bound, nil)
			} else {
				var nav *Navigation
				nav, checks = sites[id].NavigateAll(p, fx.bound, nil)
				res = sites[id].EvalNavigated(p, fx.bound, nav)
			}
		})
		results = append(results, res)
		targets := make([]object.SiteID, 0, len(checks))
		for target := range checks {
			if target != dead {
				targets = append(targets, target)
			}
		}
		slices.Sort(targets)
		for _, target := range targets {
			onReal(t, func(p fabric.Proc) { replies = append(replies, sites[target].CheckAssistants(p, checks[target])) })
		}
	}
	return results, replies
}

// withUnnamedRows adds rows the coordinator's table does not name: an
// unbound object's synthetic identity and an entity a site bound before the
// coordinator heard of it, each at two sites, copying verdicts and targets
// from existing rows. The results' row slices are copied, not extended.
func withUnnamedRows(results []LocalResult) []LocalResult {
	out := slices.Clone(results)
	n := 0
	for i := range out {
		if len(out[i].Rows) == 0 {
			continue
		}
		row := out[i].Rows[0]
		rows := slices.Clone(out[i].Rows)
		for _, g := range []object.GOid{"!unnamed:" + object.GOid(out[i].Site), "g-ahead"} {
			r := row
			r.LOid, r.GOid = object.LOid(fmt.Sprintf("ahead%d", n)), g
			n++
			rows = append(rows, r)
		}
		out[i].Rows = rows
	}
	return out
}

// certifyGolden is what CertifyDegraded answered when it grouped rows in a
// GOid-keyed map of entities, before it grouped them by entity number, per
// fixture, strategy and case: all sites up; the first root site dead; rows
// the coordinator's table does not name.
// Each case gives the answer's split, its stats, the charged CPU operations
// and a hash over every row.
var certifyGolden = []string{
	"school BL all certain=1 maybe=1 stats={LocalRows:4 Certified:1 Eliminated:2 CheckVerdicts:3} cpu=31 hash=07d188c41f01",
	"school BL dead certain=1 maybe=2 stats={LocalRows:1 Certified:1 Eliminated:0 CheckVerdicts:1} cpu=14 hash=01a68ffc2fd2",
	"school BL unnamed certain=2 maybe=1 stats={LocalRows:8 Certified:2 Eliminated:4 CheckVerdicts:3} cpu=55 hash=a764c285503c",
	"school PL all certain=1 maybe=1 stats={LocalRows:4 Certified:1 Eliminated:2 CheckVerdicts:4} cpu=32 hash=07d188c41f01",
	"school PL dead certain=1 maybe=2 stats={LocalRows:1 Certified:1 Eliminated:0 CheckVerdicts:1} cpu=14 hash=01a68ffc2fd2",
	"school PL unnamed certain=2 maybe=1 stats={LocalRows:8 Certified:2 Eliminated:4 CheckVerdicts:4} cpu=56 hash=a764c285503c",
	"teams BL all certain=2 maybe=0 stats={LocalRows:2 Certified:2 Eliminated:0 CheckVerdicts:1} cpu=12 hash=3ae674109e2e",
	"teams BL dead certain=0 maybe=2 stats={LocalRows:0 Certified:0 Eliminated:0 CheckVerdicts:0} cpu=2 hash=1be023003351",
	"teams BL unnamed certain=4 maybe=0 stats={LocalRows:4 Certified:4 Eliminated:0 CheckVerdicts:1} cpu=20 hash=0a38c5e696fd",
	"teams PL all certain=2 maybe=0 stats={LocalRows:2 Certified:2 Eliminated:0 CheckVerdicts:1} cpu=12 hash=3ae674109e2e",
	"teams PL dead certain=0 maybe=2 stats={LocalRows:0 Certified:0 Eliminated:0 CheckVerdicts:0} cpu=2 hash=1be023003351",
	"teams PL unnamed certain=4 maybe=0 stats={LocalRows:4 Certified:4 Eliminated:0 CheckVerdicts:1} cpu=20 hash=0a38c5e696fd",
	"draw1 BL all certain=3 maybe=7 stats={LocalRows:68 Certified:2 Eliminated:48 CheckVerdicts:224} cpu=676 hash=dd2ae59cbe8a",
	"draw1 BL dead certain=0 maybe=56 stats={LocalRows:61 Certified:0 Eliminated:33 CheckVerdicts:92} cpu=1004 hash=a7287c18836f",
	"draw1 BL unnamed certain=3 maybe=7 stats={LocalRows:74 Certified:2 Eliminated:52 CheckVerdicts:224} cpu=754 hash=dd2ae59cbe8a",
	"draw1 PL all certain=3 maybe=7 stats={LocalRows:68 Certified:2 Eliminated:48 CheckVerdicts:609} cpu=1061 hash=dd2ae59cbe8a",
	"draw1 PL dead certain=0 maybe=56 stats={LocalRows:61 Certified:0 Eliminated:33 CheckVerdicts:176} cpu=1088 hash=a7287c18836f",
	"draw1 PL unnamed certain=3 maybe=7 stats={LocalRows:74 Certified:2 Eliminated:52 CheckVerdicts:609} cpu=1139 hash=dd2ae59cbe8a",
	"draw2 BL all certain=6 maybe=27 stats={LocalRows:165 Certified:5 Eliminated:104 CheckVerdicts:248} cpu=1384 hash=5222ca493b08",
	"draw2 BL dead certain=6 maybe=55 stats={LocalRows:56 Certified:5 Eliminated:25 CheckVerdicts:55} cpu=703 hash=a160cccffa74",
	"draw2 BL unnamed certain=6 maybe=29 stats={LocalRows:171 Certified:5 Eliminated:106 CheckVerdicts:248} cpu=1436 hash=58f9be6a0a6f",
	"draw2 PL all certain=6 maybe=27 stats={LocalRows:165 Certified:5 Eliminated:104 CheckVerdicts:372} cpu=1508 hash=5222ca493b08",
	"draw2 PL dead certain=6 maybe=55 stats={LocalRows:56 Certified:5 Eliminated:25 CheckVerdicts:179} cpu=827 hash=a160cccffa74",
	"draw2 PL unnamed certain=6 maybe=29 stats={LocalRows:171 Certified:5 Eliminated:106 CheckVerdicts:372} cpu=1560 hash=58f9be6a0a6f",
	"draw3 BL all certain=31 maybe=91 stats={LocalRows:259 Certified:5 Eliminated:50 CheckVerdicts:254} cpu=2507 hash=f05553a8ea75",
	"draw3 BL dead certain=0 maybe=159 stats={LocalRows:191 Certified:0 Eliminated:13 CheckVerdicts:118} cpu=2360 hash=04fc337b5e38",
	"draw3 BL unnamed certain=32 maybe=93 stats={LocalRows:265 Certified:5 Eliminated:51 CheckVerdicts:254} cpu=2561 hash=5d0a3b58a354",
	"draw3 PL all certain=31 maybe=91 stats={LocalRows:259 Certified:5 Eliminated:50 CheckVerdicts:269} cpu=2522 hash=f05553a8ea75",
	"draw3 PL dead certain=0 maybe=159 stats={LocalRows:191 Certified:0 Eliminated:13 CheckVerdicts:118} cpu=2360 hash=04fc337b5e38",
	"draw3 PL unnamed certain=32 maybe=93 stats={LocalRows:265 Certified:5 Eliminated:51 CheckVerdicts:269} cpu=2576 hash=5d0a3b58a354",
	"draw4 BL all certain=11 maybe=26 stats={LocalRows:125 Certified:4 Eliminated:63 CheckVerdicts:164} cpu=944 hash=5e2ef6de33dd",
	"draw4 BL dead certain=11 maybe=55 stats={LocalRows:63 Certified:4 Eliminated:28 CheckVerdicts:66} cpu=714 hash=616ca4e082bf",
	"draw4 BL unnamed certain=12 maybe=29 stats={LocalRows:131 Certified:5 Eliminated:63 CheckVerdicts:164} cpu=990 hash=e5ee07c168e4",
	"draw4 PL all certain=11 maybe=26 stats={LocalRows:125 Certified:4 Eliminated:63 CheckVerdicts:263} cpu=1043 hash=5e2ef6de33dd",
	"draw4 PL dead certain=11 maybe=55 stats={LocalRows:63 Certified:4 Eliminated:28 CheckVerdicts:129} cpu=777 hash=616ca4e082bf",
	"draw4 PL unnamed certain=12 maybe=29 stats={LocalRows:131 Certified:5 Eliminated:63 CheckVerdicts:263} cpu=1089 hash=e5ee07c168e4",
	"table2 BL all certain=19 maybe=57 stats={LocalRows:149 Certified:12 Eliminated:58 CheckVerdicts:172} cpu=1366 hash=66aac5eebb17",
	"table2 BL dead certain=3 maybe=205 stats={LocalRows:106 Certified:0 Eliminated:31 CheckVerdicts:52} cpu=1515 hash=3e8d730bb173",
	"table2 BL unnamed certain=20 maybe=58 stats={LocalRows:155 Certified:13 Eliminated:60 CheckVerdicts:172} cpu=1412 hash=cb6ffcb661e7",
	"table2 PL all certain=19 maybe=57 stats={LocalRows:149 Certified:12 Eliminated:58 CheckVerdicts:528} cpu=1722 hash=66aac5eebb17",
	"table2 PL dead certain=3 maybe=205 stats={LocalRows:106 Certified:0 Eliminated:31 CheckVerdicts:141} cpu=1604 hash=3e8d730bb173",
	"table2 PL unnamed certain=20 maybe=58 stats={LocalRows:155 Certified:13 Eliminated:60 CheckVerdicts:528} cpu=1768 hash=cb6ffcb661e7",
}

// TestCertifyMatchesParent: certification over entity numbers gives the
// answers, the stats and the charges of the hashed grouping it replaced, on
// every site-path fixture, with a dead root site, and with rows no binding
// in the coordinator's table names.
func TestCertifyMatchesParent(t *testing.T) {
	var got []string
	for _, fx := range append(sitePathFixtures(t), table2Fixture(t, 200, false)) {
		co := NewCoordinator("G", fx.global, fx.tables)
		first := fx.bound.RootSites()[0]
		for _, alg := range []string{"BL", "PL"} {
			all, allReplies := localizedInputs(t, fx, alg, "")
			down, downReplies := localizedInputs(t, fx, alg, first)
			for _, c := range []struct {
				name    string
				results []LocalResult
				replies []CheckReply
				dead    map[object.SiteID]bool
			}{
				{"all", all, allReplies, nil},
				{"dead", down, downReplies, map[object.SiteID]bool{first: true}},
				{"unnamed", withUnnamedRows(all), allReplies, nil},
			} {
				var ans *Answer
				m := onReal(t, func(p fabric.Proc) { ans = co.CertifyDegraded(p, fx.bound, c.results, c.replies, c.dead) })
				detail := sha256.New()
				for _, rows := range [][]ResultRow{ans.Certain, ans.Maybe} {
					for _, row := range rows {
						fmt.Fprintf(detail, "row %s unknown=%v\n", row, row.Unknown)
					}
					fmt.Fprintln(detail, "--")
				}
				got = append(got, fmt.Sprintf("%s %s %s certain=%d maybe=%d stats=%+v cpu=%d hash=%x",
					fx.name, alg, c.name, len(ans.Certain), len(ans.Maybe), ans.Stats, m.CPUOps, detail.Sum(nil)[:6]))
			}
		}
	}
	if len(got) != len(certifyGolden) {
		t.Fatalf("%d (fixture, strategy, case) lines, want %d:\n%s", len(got), len(certifyGolden), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != certifyGolden[i] {
			t.Errorf("certification changed:\n got %s\nwant %s", got[i], certifyGolden[i])
		}
	}
}

// TestCertifyAllocationCeilings: certification allocates per query, not per
// entity — a slot per entity number counted in place, one gather of the rows,
// one evidence scratch slice, the answer's rows cut from slabs — on the
// benchmark's pinned Table 2 sample at two sizes.
func TestCertifyAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	measure := func(n int, alg string) (allocs float64, entities int) {
		fx := table2Fixture(t, n, false)
		results, replies := localizedInputs(t, fx, alg, "")
		seen := map[object.GOid]bool{}
		for _, res := range results {
			for _, row := range res.Rows {
				seen[row.GOid] = true
			}
		}
		co := NewCoordinator("G", fx.global, fx.tables)
		return allocsOnFabric(t, func(p fabric.Proc) { co.Certify(p, fx.bound, results, replies) }), len(seen)
	}
	// Measured: BL 42 allocations for 134 entities and 48 for 372 (0.025 per
	// further entity), PL 42 and 50 (0.034) — the answer's slab chunks and
	// growing row lists. (The GOid-keyed grouping: 766 → 1 974, 5.1 per
	// further entity — an entity struct, its row and site slices, an evidence
	// slice, a target slice, and the GOid map and order as they grow.)
	for _, alg := range []string{"BL", "PL"} {
		small, nSmall := measure(200, alg)
		large, nLarge := measure(550, alg)
		perEntity := (large - small) / float64(nLarge-nSmall)
		if nLarge < 2*nSmall || perEntity > 0.1 {
			t.Errorf("Certify %s: %.0f allocs for %d entities, %.0f for %d = %.2f per further entity, ceiling 0.1",
				alg, small, nSmall, large, nLarge, perEntity)
		} else {
			t.Logf("Certify %s: %.0f allocs for %d entities, %.0f for %d = %.3f per further entity",
				alg, small, nSmall, large, nLarge, perEntity)
		}
	}
}
