package federation

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/workload"
)

// sitePathFixture is one federation and one query bound against it, once.
type sitePathFixture struct {
	name   string
	global *schema.Global
	dbs    map[object.SiteID]*store.Database
	tables *gmap.Tables
	bound  *query.Bound
}

func (fx sitePathFixture) sites() map[object.SiteID]*Site {
	sites := make(map[object.SiteID]*Site, len(fx.dbs))
	for id, db := range fx.dbs {
		sites[id] = NewSite(db, fx.global, fx.tables)
	}
	return sites
}

// teamFixture is a two-site federation whose query paths cross multi-valued
// attributes: teams with set-valued member references, employee skills split
// across the sites.
func teamFixture(t testing.TB, src string) sitePathFixture {
	t.Helper()
	employee := []schema.Attribute{schema.Prim("name", object.KindString), schema.Prim("skill", object.KindString)}
	s1 := schema.NewSchema("S1")
	s1.MustAddClass(schema.MustClass("Employee", employee, "name"))
	s1.MustAddClass(schema.MustClass("Team", []schema.Attribute{
		schema.Prim("name", object.KindString),
		{Name: "members", Domain: "Employee", MultiValued: true},
	}, "name"))
	s2 := schema.NewSchema("S2")
	s2.MustAddClass(schema.MustClass("Employee", employee, "name"))
	global, err := schema.Integrate(map[object.SiteID]*schema.Schema{"S1": s1, "S2": s2}, []schema.Correspondence{
		{GlobalClass: "Team", Members: []schema.Constituent{{Site: "S1", Class: "Team"}}},
		{GlobalClass: "Employee", Members: []schema.Constituent{{Site: "S1", Class: "Employee"}, {Site: "S2", Class: "Employee"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db1, db2 := store.MustNewDatabase(s1), store.MustNewDatabase(s2)
	str := object.Str
	db1.MustInsert(object.New("e1", "Employee", map[string]object.Value{"name": str("Ada")}))
	db1.MustInsert(object.New("e2", "Employee", map[string]object.Value{"name": str("Ben"), "skill": str("go")}))
	db1.MustInsert(object.New("e3", "Employee", map[string]object.Value{"name": str("Cem")}))
	db1.MustInsert(object.New("t1", "Team", map[string]object.Value{
		"name": str("Core"), "members": object.List(object.Ref("e1"), object.Ref("e2"))}))
	db1.MustInsert(object.New("t2", "Team", map[string]object.Value{
		"name": str("Edge"), "members": object.List(object.Ref("e3"), object.Ref("e1"))}))
	db2.MustInsert(object.New("e1'", "Employee", map[string]object.Value{"name": str("Ada"), "skill": str("rust")}))
	dbs := map[object.SiteID]*store.Database{"S1": db1, "S2": db2}
	tables, err := isomer.Identify(global, dbs)
	if err != nil {
		t.Fatal(err)
	}
	return sitePathFixture{name: "teams", global: global, dbs: dbs, tables: tables,
		bound: query.MustBind(query.MustParse(src), global)}
}

func sitePathFixtures(t testing.TB) []sitePathFixture {
	t.Helper()
	sc := school.New()
	fxs := []sitePathFixture{
		{name: "school", global: sc.Global, dbs: sc.Databases, tables: sc.Mapping,
			bound: query.MustBind(query.MustParse(school.Q1), sc.Global)},
		teamFixture(t, `select name from Team where members.skill = "rust"`),
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranges := workload.Ranges{NDB: 3, NClasses: [2]int{2, 4}, NPredsPerClass: [2]int{1, 2}, NObjects: [2]int{80, 120},
			NullRatio: [2]float64{0.05, 0.3}, ReplicaProb: 0.3, PadAttrs: 1,
			EqualityPreds: seed == 2, Disjunctive: seed == 3}
		w, err := workload.Generate(ranges.Draw(rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		fxs = append(fxs, sitePathFixture{name: fmt.Sprintf("draw%d", seed), global: w.Global, dbs: w.Databases,
			tables: w.Tables, bound: w.Bound})
	}
	return fxs
}

// sitePathGolden is what the site path produced before unsolved predicates
// were shared by reference (PR 14's commit), per fixture and root site:
// counts that say what moved when a line differs, the cost model's totals for
// BL's and PL's site steps and their checks, and a hash over every row,
// unsolved item, check item and verdict.
var sitePathGolden = []string{
	"school/DB1 BL rows=3 unsolved=7 wire=760 disk=672 cpu=49 checks=DB2:1,DB3:1, verdicts=2 checkdisk=224 checkcpu=5; PL rows=3 unsolved=7 wire=760 disk=672 cpu=56 checks=DB2:1,DB3:1, verdicts=2 checkdisk=224 checkcpu=5; hash=878eed69a51f",
	"school/DB2 BL rows=1 unsolved=1 wire=232 disk=816 cpu=26 checks=DB3:1, verdicts=1 checkdisk=112 checkcpu=3; PL rows=1 unsolved=1 wire=232 disk=816 cpu=40 checks=DB1:1,DB3:1, verdicts=2 checkdisk=224 checkcpu=6; hash=a54a5d7c4d94",
	"teams/S1 BL rows=2 unsolved=3 wire=352 disk=336 cpu=18 checks=S2:1, verdicts=1 checkdisk=80 checkcpu=2; PL rows=2 unsolved=3 wire=352 disk=336 cpu=21 checks=S2:1, verdicts=1 checkdisk=80 checkcpu=2; hash=810b3c29f35f",
	"draw1/DB1 BL rows=7 unsolved=26 wire=2376 disk=32032 cpu=889 checks=DB2:14, verdicts=14 checkdisk=2320 checkcpu=27; PL rows=7 unsolved=26 wire=2376 disk=47088 cpu=3647 checks=DB2:129, verdicts=129 checkdisk=19024 checkcpu=254; hash=a0bd92652889",
	"draw1/DB2 BL rows=21 unsolved=88 wire=7480 disk=36544 cpu=1475 checks=DB1:29, verdicts=29 checkdisk=4576 checkcpu=56; PL rows=21 unsolved=88 wire=7480 disk=44112 cpu=3723 checks=DB1:127, verdicts=127 checkdisk=19952 checkcpu=243; hash=125680035831",
	"draw1/DB3 BL rows=40 unsolved=209 wire=16176 disk=29840 cpu=1968 checks=DB1:89,DB2:92, verdicts=181 checkdisk=23504 checkcpu=377; PL rows=40 unsolved=209 wire=16176 disk=42080 cpu=4005 checks=DB1:177,DB2:176, verdicts=353 checkdisk=46048 checkcpu=727; hash=b05b07417262",
	"draw2/DB1 BL rows=109 unsolved=436 wire=34944 disk=31440 cpu=2907 checks=DB2:62,DB3:131, verdicts=193 checkdisk=27488 checkcpu=343; PL rows=109 unsolved=436 wire=34944 disk=31440 cpu=3343 checks=DB2:62,DB3:131, verdicts=193 checkdisk=27488 checkcpu=343; hash=b355c5b644eb",
	"draw2/DB2 BL rows=24 unsolved=58 wire=5920 disk=24736 cpu=862 checks=DB3:35, verdicts=35 checkdisk=5072 checkcpu=62; PL rows=24 unsolved=58 wire=5920 disk=32624 cpu=2008 checks=DB3:122, verdicts=122 checkdisk=17712 checkcpu=216; hash=9e9120022f2b",
	"draw2/DB3 BL rows=32 unsolved=74 wire=7712 disk=28224 cpu=1127 checks=DB2:20, verdicts=20 checkdisk=2784 checkcpu=37; PL rows=32 unsolved=74 wire=7712 disk=35312 cpu=2094 checks=DB2:57, verdicts=57 checkdisk=7952 checkcpu=106; hash=ab26a159ac85",
	"draw3/DB1 BL rows=68 unsolved=100 wire=13568 disk=34224 cpu=1570 checks=DB2:53, verdicts=53 checkdisk=7248 checkcpu=90; PL rows=68 unsolved=100 wire=13568 disk=35904 cpu=1827 checks=DB2:68, verdicts=68 checkdisk=9328 checkcpu=117; hash=9016dc943da6",
	"draw3/DB2 BL rows=93 unsolved=252 wire=24064 disk=38064 cpu=2076 checks=DB1:24, verdicts=24 checkdisk=3712 checkcpu=44; PL rows=93 unsolved=252 wire=24064 disk=38064 cpu=2416 checks=DB1:24, verdicts=24 checkdisk=3712 checkcpu=44; hash=ba1e3438f0cb",
	"draw3/DB3 BL rows=98 unsolved=392 wire=31424 disk=28512 cpu=2122 checks=DB1:59,DB2:118, verdicts=177 checkdisk=25968 checkcpu=308; PL rows=98 unsolved=392 wire=31424 disk=28512 cpu=2514 checks=DB1:59,DB2:118, verdicts=177 checkdisk=25968 checkcpu=308; hash=c5ef168d159a",
	"draw4/DB1 BL rows=62 unsolved=151 wire=14752 disk=28848 cpu=1281 checks=DB2:98, verdicts=98 checkdisk=14240 checkcpu=175; PL rows=62 unsolved=151 wire=14752 disk=34096 cpu=1905 checks=DB2:134, verdicts=134 checkdisk=19712 checkcpu=245; hash=0a6a460c024c",
	"draw4/DB2 BL rows=21 unsolved=21 wire=3592 disk=27840 cpu=695 checks= verdicts=0 checkdisk=0 checkcpu=0; PL rows=21 unsolved=21 wire=3592 disk=36352 cpu=1167 checks= verdicts=0 checkdisk=0 checkcpu=0; hash=60ea49f76299",
	"draw4/DB3 BL rows=42 unsolved=100 wire=9904 disk=23456 cpu=922 checks=DB2:66, verdicts=66 checkdisk=9600 checkcpu=118; PL rows=42 unsolved=100 wire=9904 disk=31824 cpu=1613 checks=DB2:129, verdicts=129 checkdisk=18864 checkcpu=233; hash=20bdc24937ef",
}

// sitePathSignedGolden and sitePathUnboundGolden extend sitePathGolden to
// the signature-assisted steps (SBL, SPL: a repeated item replays the probe
// charge of its first occurrence) and to site replicas that lack a third of
// the bindings (items named by Table.Unbound GOids), computed at PR 33's
// commit.
var sitePathSignedGolden = []string{
	"school/DB1 SBL synthesized=1 rows=3 unsolved=7 wire=784 disk=672 cpu=50 checks=DB3:1, verdicts=1 checkdisk=144 checkcpu=3; SPL synthesized=1 rows=3 unsolved=7 wire=784 disk=672 cpu=57 checks=DB3:1, verdicts=1 checkdisk=144 checkcpu=3; hash=e91a9ee24b08",
	"school/DB2 SBL synthesized=0 rows=1 unsolved=1 wire=232 disk=816 cpu=26 checks=DB3:1, verdicts=1 checkdisk=112 checkcpu=3; SPL synthesized=0 rows=1 unsolved=1 wire=232 disk=816 cpu=40 checks=DB1:1,DB3:1, verdicts=2 checkdisk=224 checkcpu=6; hash=e50ddb3faa5d",
	"teams/S1 SBL synthesized=0 rows=2 unsolved=3 wire=352 disk=336 cpu=20 checks=S2:1, verdicts=1 checkdisk=80 checkcpu=2; SPL synthesized=0 rows=2 unsolved=3 wire=352 disk=336 cpu=23 checks=S2:1, verdicts=1 checkdisk=80 checkcpu=2; hash=a0c129aff3a8",
	"draw1/DB1 SBL synthesized=0 rows=7 unsolved=26 wire=2376 disk=32032 cpu=889 checks=DB2:14, verdicts=14 checkdisk=2320 checkcpu=27; SPL synthesized=0 rows=7 unsolved=26 wire=2376 disk=47088 cpu=3647 checks=DB2:129, verdicts=129 checkdisk=19024 checkcpu=254; hash=89fefa861c6f",
	"draw1/DB2 SBL synthesized=0 rows=21 unsolved=88 wire=7480 disk=36544 cpu=1475 checks=DB1:29, verdicts=29 checkdisk=4576 checkcpu=56; SPL synthesized=0 rows=21 unsolved=88 wire=7480 disk=44112 cpu=3723 checks=DB1:127, verdicts=127 checkdisk=19952 checkcpu=243; hash=e91bb1858c42",
	"draw1/DB3 SBL synthesized=0 rows=40 unsolved=209 wire=16176 disk=29840 cpu=1968 checks=DB1:89,DB2:92, verdicts=181 checkdisk=23504 checkcpu=377; SPL synthesized=0 rows=40 unsolved=209 wire=16176 disk=42080 cpu=4005 checks=DB1:177,DB2:176, verdicts=353 checkdisk=46048 checkcpu=727; hash=d035b0c04bf5",
	"draw2/DB1 SBL synthesized=82 rows=109 unsolved=436 wire=36912 disk=31440 cpu=3209 checks=DB2:37,DB3:74, verdicts=111 checkdisk=15248 checkcpu=179; SPL synthesized=82 rows=109 unsolved=436 wire=36912 disk=31440 cpu=3645 checks=DB2:37,DB3:74, verdicts=111 checkdisk=15248 checkcpu=179; hash=e0740ce058f2",
	"draw2/DB2 SBL synthesized=13 rows=24 unsolved=58 wire=6232 disk=24736 cpu=908 checks=DB3:22, verdicts=22 checkdisk=3072 checkcpu=36; SPL synthesized=53 rows=24 unsolved=58 wire=7192 disk=32624 cpu=2194 checks=DB3:69, verdicts=69 checkdisk=9600 checkcpu=110; hash=7794dd7fa35c",
	"draw2/DB3 SBL synthesized=6 rows=32 unsolved=74 wire=7856 disk=28224 cpu=1157 checks=DB2:14, verdicts=14 checkdisk=1920 checkcpu=25; SPL synthesized=21 rows=32 unsolved=74 wire=8216 disk=35312 cpu=2192 checks=DB2:36, verdicts=36 checkdisk=4928 checkcpu=64; hash=a9202e3e4f42",
	"draw3/DB1 SBL synthesized=0 rows=68 unsolved=100 wire=13568 disk=34224 cpu=1570 checks=DB2:53, verdicts=53 checkdisk=7248 checkcpu=90; SPL synthesized=0 rows=68 unsolved=100 wire=13568 disk=35904 cpu=1827 checks=DB2:68, verdicts=68 checkdisk=9328 checkcpu=117; hash=f21c368f54fa",
	"draw3/DB2 SBL synthesized=0 rows=93 unsolved=252 wire=24064 disk=38064 cpu=2076 checks=DB1:24, verdicts=24 checkdisk=3712 checkcpu=44; SPL synthesized=0 rows=93 unsolved=252 wire=24064 disk=38064 cpu=2416 checks=DB1:24, verdicts=24 checkdisk=3712 checkcpu=44; hash=3d23f6a97d30",
	"draw3/DB3 SBL synthesized=0 rows=98 unsolved=392 wire=31424 disk=28512 cpu=2122 checks=DB1:59,DB2:118, verdicts=177 checkdisk=25968 checkcpu=308; SPL synthesized=0 rows=98 unsolved=392 wire=31424 disk=28512 cpu=2514 checks=DB1:59,DB2:118, verdicts=177 checkdisk=25968 checkcpu=308; hash=4319b0bfb7b6",
	"draw4/DB1 SBL synthesized=0 rows=62 unsolved=151 wire=14752 disk=28848 cpu=1281 checks=DB2:98, verdicts=98 checkdisk=14240 checkcpu=175; SPL synthesized=0 rows=62 unsolved=151 wire=14752 disk=34096 cpu=1905 checks=DB2:134, verdicts=134 checkdisk=19712 checkcpu=245; hash=f50a22a616e9",
	"draw4/DB2 SBL synthesized=0 rows=21 unsolved=21 wire=3592 disk=27840 cpu=695 checks= verdicts=0 checkdisk=0 checkcpu=0; SPL synthesized=0 rows=21 unsolved=21 wire=3592 disk=36352 cpu=1167 checks= verdicts=0 checkdisk=0 checkcpu=0; hash=22dbcbe27862",
	"draw4/DB3 SBL synthesized=0 rows=42 unsolved=100 wire=9904 disk=23456 cpu=922 checks=DB2:66, verdicts=66 checkdisk=9600 checkcpu=118; SPL synthesized=0 rows=42 unsolved=100 wire=9904 disk=31824 cpu=1613 checks=DB2:129, verdicts=129 checkdisk=18864 checkcpu=233; hash=7db32985de4a",
}

var sitePathUnboundGolden = []string{
	"school/DB1 BL rows=3 unsolved=7 wire=760 disk=672 cpu=49 checks=DB3:1, verdicts=1 checkdisk=144 checkcpu=3; PL rows=3 unsolved=7 wire=760 disk=672 cpu=56 checks=DB3:1, verdicts=1 checkdisk=144 checkcpu=3; hash=7793755c3c19",
	"school/DB2 BL rows=1 unsolved=1 wire=232 disk=816 cpu=26 checks=DB3:1, verdicts=1 checkdisk=112 checkcpu=3; PL rows=1 unsolved=1 wire=232 disk=816 cpu=40 checks=DB3:1, verdicts=1 checkdisk=112 checkcpu=3; hash=d33953828001",
	"teams/S1 BL rows=2 unsolved=3 wire=352 disk=336 cpu=18 checks=S2:1, verdicts=1 checkdisk=80 checkcpu=2; PL rows=2 unsolved=3 wire=352 disk=336 cpu=21 checks=S2:1, verdicts=1 checkdisk=80 checkcpu=2; hash=fa784122ea0f",
	"draw1/DB1 BL rows=7 unsolved=26 wire=2376 disk=32032 cpu=889 checks=DB2:4, verdicts=4 checkdisk=672 checkcpu=8; PL rows=7 unsolved=26 wire=2376 disk=47088 cpu=3647 checks=DB2:41, verdicts=41 checkdisk=5984 checkcpu=85; hash=4aacbfb95ce7",
	"draw1/DB2 BL rows=21 unsolved=88 wire=7480 disk=36544 cpu=1475 checks=DB1:8, verdicts=8 checkdisk=1280 checkcpu=16; PL rows=21 unsolved=88 wire=7480 disk=44112 cpu=3723 checks=DB1:36, verdicts=36 checkdisk=5632 checkcpu=68; hash=bbff2e573d0a",
	"draw1/DB3 BL rows=40 unsolved=209 wire=16176 disk=29840 cpu=1968 checks=DB1:47,DB2:19, verdicts=66 checkdisk=9456 checkcpu=128; PL rows=40 unsolved=209 wire=16176 disk=42080 cpu=4005 checks=DB1:79,DB2:42, verdicts=121 checkdisk=16640 checkcpu=237; hash=01487213d0ae",
	"draw2/DB1 BL rows=109 unsolved=436 wire=34944 disk=31440 cpu=2907 checks=DB2:15,DB3:56, verdicts=71 checkdisk=10224 checkcpu=127; PL rows=109 unsolved=436 wire=34944 disk=31440 cpu=3343 checks=DB2:15,DB3:56, verdicts=71 checkdisk=10224 checkcpu=127; hash=46141d4f686f",
	"draw2/DB2 BL rows=24 unsolved=58 wire=5920 disk=24736 cpu=862 checks=DB3:12, verdicts=12 checkdisk=1792 checkcpu=23; PL rows=24 unsolved=58 wire=5920 disk=32624 cpu=2008 checks=DB3:40, verdicts=40 checkdisk=5920 checkcpu=74; hash=926ac02f6234",
	"draw2/DB3 BL rows=32 unsolved=74 wire=7712 disk=28224 cpu=1127 checks=DB2:6, verdicts=6 checkdisk=800 checkcpu=10; PL rows=32 unsolved=74 wire=7712 disk=35312 cpu=2094 checks=DB2:21, verdicts=21 checkdisk=2896 checkcpu=38; hash=9d49c1b546b8",
	"draw3/DB1 BL rows=68 unsolved=100 wire=13568 disk=34224 cpu=1570 checks=DB2:14, verdicts=14 checkdisk=1936 checkcpu=24; PL rows=68 unsolved=100 wire=13568 disk=35904 cpu=1827 checks=DB2:17, verdicts=17 checkdisk=2368 checkcpu=30; hash=12a4657e1412",
	"draw3/DB2 BL rows=93 unsolved=252 wire=24064 disk=38064 cpu=2076 checks=DB1:7, verdicts=7 checkdisk=1056 checkcpu=12; PL rows=93 unsolved=252 wire=24064 disk=38064 cpu=2416 checks=DB1:7, verdicts=7 checkdisk=1056 checkcpu=12; hash=8cf5c640f336",
	"draw3/DB3 BL rows=98 unsolved=392 wire=31424 disk=28512 cpu=2122 checks=DB1:22,DB2:42, verdicts=64 checkdisk=9440 checkcpu=112; PL rows=98 unsolved=392 wire=31424 disk=28512 cpu=2514 checks=DB1:22,DB2:42, verdicts=64 checkdisk=9440 checkcpu=112; hash=7d13f622b735",
	"draw4/DB1 BL rows=62 unsolved=151 wire=14752 disk=28848 cpu=1281 checks=DB2:38, verdicts=38 checkdisk=5504 checkcpu=68; PL rows=62 unsolved=151 wire=14752 disk=34096 cpu=1905 checks=DB2:48, verdicts=48 checkdisk=7056 checkcpu=88; hash=fef201e44d35",
	"draw4/DB2 BL rows=21 unsolved=21 wire=3592 disk=27840 cpu=695 checks= verdicts=0 checkdisk=0 checkcpu=0; PL rows=21 unsolved=21 wire=3592 disk=36352 cpu=1167 checks= verdicts=0 checkdisk=0 checkcpu=0; hash=7b2b8ec0de94",
	"draw4/DB3 BL rows=42 unsolved=100 wire=9904 disk=23456 cpu=922 checks=DB2:27, verdicts=27 checkdisk=3936 checkcpu=47; PL rows=42 unsolved=100 wire=9904 disk=31824 cpu=1613 checks=DB2:49, verdicts=49 checkdisk=7168 checkcpu=86; hash=7af773e2268f",
}

// TestSitePathMatchesParent: one bound query, evaluated by all root sites at
// once (the race detector watches the shared bound query, points and stored
// objects), yields the rows, check items — the same multiset per target — and
// cost-counter totals of the by-value implementation it replaced; with
// signatures, and over replicas missing bindings, those of PR 33's.
func TestSitePathMatchesParent(t *testing.T) {
	fxs := sitePathFixtures(t)
	for _, c := range []struct {
		name   string
		golden []string
		signed bool
		fx     func(sitePathFixture) sitePathFixture
	}{
		{"plain", sitePathGolden, false, func(fx sitePathFixture) sitePathFixture { return fx }},
		{"signed", sitePathSignedGolden, true, func(fx sitePathFixture) sitePathFixture { return fx }},
		{"unbound", sitePathUnboundGolden, false, withoutEveryThirdBinding},
	} {
		var got []string
		for _, fx := range fxs {
			fx = c.fx(fx)
			var sigs *signature.Index
			if c.signed {
				sigs = signature.Build(fx.dbs)
			}
			sites := fx.sites()
			roots := fx.bound.RootSites()
			lines := make([]string, len(roots))
			var wg sync.WaitGroup
			for i, id := range roots {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lines[i] = fx.name + "/" + string(id) + " " + sitePathSummary(t, fx.bound, sites, id, sigs)
				}()
			}
			wg.Wait()
			got = append(got, lines...)
		}
		if len(got) != len(c.golden) {
			t.Errorf("%s: %d (fixture, site) lines, want %d:\n%q", c.name, len(got), len(c.golden), got)
			continue
		}
		for i := range got {
			if got[i] != c.golden[i] {
				t.Errorf("%s site path changed:\n got %s\nwant %s", c.name, got[i], c.golden[i])
			}
		}
	}
}

// withoutEveryThirdBinding returns the fixture with mapping tables that lack
// every third binding of every class, so that some rows, items and
// references resolve to Table.Unbound GOids and some entities lose an
// assistant.
func withoutEveryThirdBinding(fx sitePathFixture) sitePathFixture {
	tables := gmap.NewTables()
	n := 0
	for _, class := range fx.tables.Classes() {
		from, to := fx.tables.Table(class), tables.Table(class)
		for _, g := range from.GOids() {
			for _, loc := range from.Locations(g) {
				if n++; n%3 != 0 {
					to.MustBind(g, loc.Site, loc.LOid)
				}
			}
		}
	}
	fx.tables = tables
	return fx
}

// sitePathSummary runs BL's and PL's site steps at one root site — SBL's
// and SPL's when sigs is set — and the checks they ask of the other sites,
// and renders the outcome as one line.
func sitePathSummary(t *testing.T, b *query.Bound, sites map[object.SiteID]*Site, id object.SiteID, sigs *signature.Index) string {
	site := sites[id]
	detail := sha256.New()
	step := func(fn func(fabric.Proc)) fabric.Metrics {
		m, err := fabric.NewReal(fabric.DefaultRates()).Run("sitepath", fn)
		if err != nil {
			t.Error(err)
		}
		return m
	}
	var line strings.Builder
	for _, alg := range []string{"BL", "PL"} {
		var (
			res    LocalResult
			checks map[object.SiteID][]CheckItem
		)
		m := step(func(p fabric.Proc) {
			if alg == "BL" {
				res, checks = site.EvalLocalBasic(p, b, sigs)
			} else {
				var nav *Navigation
				nav, checks = site.NavigateAll(p, b, sigs)
				res = site.EvalNavigated(p, b, nav)
			}
		})
		if sigs == nil {
			fmt.Fprintf(&line, "%s ", alg)
		} else {
			rendered := make([]string, len(res.SigVerdicts))
			for i, v := range res.SigVerdicts {
				rendered[i] = fmt.Sprintf("%s idx=%d len=%d %v", v.ItemGOid, v.SourceIdx, v.SuffixLen, v.Verdict)
			}
			sort.Strings(rendered)
			fmt.Fprintf(detail, "synthesized\n %s\n", strings.Join(rendered, "\n "))
			fmt.Fprintf(&line, "S%s synthesized=%d ", alg, len(rendered))
		}
		unsolved := 0
		for _, row := range res.Rows {
			fmt.Fprintf(detail, "row %s %s %v %v\n", row.LOid, row.GOid, row.Targets, row.Verdicts)
			for _, u := range row.Unsolved {
				unsolved++
				fmt.Fprintf(detail, " unsolved %s %s self=%v %s idx=%d multi=%v\n",
					u.ItemGOid, u.ItemClass, u.SelfItem, u.Suffix, u.SourceIdx, u.Multi)
			}
		}
		targets := make([]object.SiteID, 0, len(checks))
		for target := range checks {
			targets = append(targets, target)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		fmt.Fprintf(&line, "rows=%d unsolved=%d wire=%d disk=%d cpu=%d checks=",
			len(res.Rows), unsolved, res.WireSize(), m.DiskBytes, m.CPUOps)
		var verdicts int
		var checkDisk, checkCPU int64
		for _, target := range targets {
			items := checks[target]
			rendered := make([]string, len(items))
			for i, it := range items {
				rendered[i] = fmt.Sprintf("%s %s %s %s idx=%d", it.Assistant, it.ItemGOid, it.ItemClass, it.Suffix, it.SourceIdx)
			}
			sort.Strings(rendered) // a multiset: the order items leave in is not part of the plan
			fmt.Fprintf(detail, "check %s\n %s\n", target, strings.Join(rendered, "\n "))
			var reply CheckReply
			cm := step(func(p fabric.Proc) { reply = sites[target].CheckAssistants(p, items) })
			checkDisk, checkCPU = checkDisk+cm.DiskBytes, checkCPU+cm.CPUOps
			rendered = rendered[:0]
			for _, v := range reply.Verdicts {
				rendered = append(rendered, fmt.Sprintf("%s idx=%d len=%d %v", v.ItemGOid, v.SourceIdx, v.SuffixLen, v.Verdict))
			}
			sort.Strings(rendered)
			fmt.Fprintf(detail, "verdicts %s\n %s\n", target, strings.Join(rendered, "\n "))
			verdicts += len(reply.Verdicts)
			fmt.Fprintf(&line, "%s:%d,", target, len(items))
		}
		fmt.Fprintf(&line, " verdicts=%d checkdisk=%d checkcpu=%d; ", verdicts, checkDisk, checkCPU)
	}
	fmt.Fprintf(&line, "hash=%x", detail.Sum(nil)[:6])
	return line.String()
}

// allocsOnFabric counts the allocations of one federation step run the way
// a server runs it; the fabric's own few are part of every figure alike.
func allocsOnFabric(t *testing.T, fn func(fabric.Proc)) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		if _, err := fabric.NewReal(fabric.DefaultRates()).Run("allocs", fn); err != nil {
			t.Fatal(err)
		}
	})
}

// inWorkspace runs fn in a workspace of site's and releases it, as a server
// does around a request.
func inWorkspace(site *Site, fn func(*Workspace)) {
	ws := site.Workspace()
	fn(ws)
	ws.Release()
}

// table2Fixture is the benchmark's table2 federation shape at n objects per
// class per site; complete makes every site hold every predicate attribute
// and leaves no nulls, so no root object has missing data.
func table2Fixture(t testing.TB, n int, complete bool) sitePathFixture {
	t.Helper()
	class := func(nPreds int, held [][]int) workload.ClassParams {
		cp := workload.ClassParams{NPreds: nPreds, NObjects: []int{n, n, n},
			NullRatio: []float64{0.1, 0.1, 0.1}, HeldPreds: held}
		if complete {
			cp.NullRatio = []float64{0, 0, 0}
			all := make([]int, nPreds)
			for i := range all {
				all[i] = i
			}
			cp.HeldPreds = [][]int{all, all, all}
		}
		return cp
	}
	w, err := workload.Generate(workload.Params{
		NDB: 3,
		Classes: []workload.ClassParams{
			class(2, [][]int{{0, 1}, {0}, {1}}),
			class(1, [][]int{{0}, {}, {0}}),
			class(1, [][]int{{}, {0}, {0}}),
		},
		ReplicaProb: 0.1,
		PadAttrs:    2,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return sitePathFixture{name: "table2", global: w.Global, dbs: w.Databases, tables: w.Tables, bound: w.Bound}
}

// TestSitePathAllocationCeilings pins what the flat site path is for, on
// both ways a step runs: the Site methods, in a workspace of their own that
// nothing recycles (one-shot callers and benchmark/'s step replay), and a
// recycled workspace after a warm-up, as a server runs it.
// NavigateAll sizes its state from the extent, so a root object without
// missing data costs no allocation either way, and one with missing data a
// small fraction of what it cost when every unsolved point, item and check
// item carried its own predicate (PR 14's commit: 10.2 per root object of
// this federation at DB1, 1.0 without missing data); in a recycled
// workspace it costs none.
// CheckAssistants binds each distinct point once and sizes its reply and its
// buffer pool's bitset once: nothing per item. Table.Locations hands out the
// table's own slice.
func TestSitePathAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	type path struct {
		name     string
		navigate func(s *Site, p fabric.Proc, b *query.Bound)
		check    func(s *Site, p fabric.Proc, items []CheckItem)
		// Ceilings on NavigateAll with missing data, per root object, and
		// on a CheckAssistants request.
		allocs, bytes, checkAllocs float64
	}
	paths := []path{{
		name:     "one-shot",
		navigate: func(s *Site, p fabric.Proc, b *query.Bound) { s.NavigateAll(p, b, nil) },
		check:    func(s *Site, p fabric.Proc, items []CheckItem) { s.CheckAssistants(p, items) },
		// Measured: 58 allocations, 0.108 per root — the workspace's arrays,
		// the buffer pool's bitset, the collector's item table per point and
		// the check-item slices, growing (before workspaces: 54, 0.101; PR
		// 33's commit: 71, 0.133); 333 bytes per root — two-byte outcomes,
		// the items, the check items (before workspaces: 332; PR 33's
		// commit kept a 48-byte outcome per predicate, a slice header per
		// root and a GOid-keyed map of the items: 668). CheckAssistants: 15
		// for either request; 13 of them a one-item request makes too (the
		// fabric's run and sinks, the reply's verdicts, the buffer pool and
		// its bitset), the rest are the second point's bound suffix.
		allocs: 0.12, bytes: 400, checkAllocs: 15,
	}, {
		name: "recycled",
		navigate: func(s *Site, p fabric.Proc, b *query.Bound) {
			inWorkspace(s, func(ws *Workspace) { ws.NavigateAll(p, b, nil) })
		},
		check: func(s *Site, p fabric.Proc, items []CheckItem) {
			inWorkspace(s, func(ws *Workspace) { ws.CheckAssistants(p, items) })
		},
		// Measured: 17 allocations, 0.032 per root — the fabric's run, the
		// buffer pool and its bitset, the predicate split; 2.6 bytes per
		// root. CheckAssistants: 14, the reply's verdicts being the
		// workspace's.
		allocs: 0.038, bytes: 3.2, checkAllocs: 14,
	}}
	complete200, complete400 := table2Fixture(t, 200, true), table2Fixture(t, 400, true)
	fx := table2Fixture(t, 550, false)
	sites := fx.sites()
	db1 := sites["DB1"]
	roots := db1.rootExtent(fx.bound).Len()
	var checks map[object.SiteID][]CheckItem
	if _, err := fabric.NewReal(fabric.DefaultRates()).Run("checks", func(p fabric.Proc) {
		_, checks = db1.NavigateAll(p, fx.bound, nil)
	}); err != nil {
		t.Fatal(err)
	}
	items := checks["DB3"]
	points := map[*query.Point]bool{}
	for _, it := range items {
		points[it.Point] = true
	}
	if len(items) < 100 || len(points) < 2 {
		t.Fatalf("DB1 asks DB3 for %d checks over %d points: too few to tell per-item from per-request", len(items), len(points))
	}

	for _, pt := range paths {
		// AllocsPerRun's warm-up run grows a recycled workspace.
		navigate := func(fx sitePathFixture) (perRun float64, roots int) {
			site := fx.sites()["DB1"]
			return allocsOnFabric(t, func(p fabric.Proc) { pt.navigate(site, p, fx.bound) }), site.rootExtent(fx.bound).Len()
		}
		small, nSmall := navigate(complete200)
		large, nLarge := navigate(complete400)
		if perObject := (large - small) / float64(nLarge-nSmall); perObject > 0.05 {
			t.Errorf("%s NavigateAll without missing data: %.0f allocs for %d roots, %.0f for %d = %.3f per further root, want 0",
				pt.name, small, nSmall, large, nLarge, perObject)
		}

		// A buffer that allocates per object it holds goes over.
		navigateDB1 := func(p fabric.Proc) { pt.navigate(db1, p, fx.bound) }
		if perRoot := allocsOnFabric(t, navigateDB1) / float64(roots); perRoot > pt.allocs {
			t.Errorf("%s NavigateAll with missing data: %.3f allocs per root (%d roots), ceiling %.3f",
				pt.name, perRoot, roots, pt.allocs)
		} else {
			t.Logf("%s NavigateAll with missing data: %.3f allocs per root (%d roots)", pt.name, perRoot, roots)
		}
		const runs = 10
		onReal(t, navigateDB1) // a recycled workspace grows in its first query
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			onReal(t, navigateDB1)
		}
		runtime.ReadMemStats(&after)
		if perRoot := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(roots); perRoot > pt.bytes {
			t.Errorf("%s NavigateAll with missing data: %.2f bytes per root, ceiling %.1f", pt.name, perRoot, pt.bytes)
		} else {
			t.Logf("%s NavigateAll with missing data: %.2f bytes per root", pt.name, perRoot)
		}

		check := func(items []CheckItem) float64 {
			return allocsOnFabric(t, func(p fabric.Proc) { pt.check(sites["DB3"], p, items) })
		}
		half, all := check(items[:len(items)/2]), check(items)
		if all != half || all > pt.checkAllocs {
			t.Errorf("%s CheckAssistants: %.0f allocs for %d items, %.0f for %d, over %d points; want none per item and at most %.0f",
				pt.name, half, len(items)/2, all, len(items), len(points), pt.checkAllocs)
		} else {
			t.Logf("%s CheckAssistants: %.0f allocs per request", pt.name, all)
		}
	}

	table := fx.tables.Table(fx.bound.Query.Range)
	goids := table.GOids()
	var locs []gmap.Location
	if n := testing.AllocsPerRun(10, func() {
		for _, g := range goids {
			locs = table.Locations(g)
		}
	}); n != 0 || len(locs) == 0 {
		t.Errorf("Table.Locations: %v allocs per %d look-ups, want 0", n, len(goids))
	}
}

// BenchmarkSite times the site-side steps of CA, BL and PL on the benchmark's
// pinned Table 2 sample (DB1's steps; the checks DB1 asks of DB3).
func BenchmarkSite(b *testing.B) {
	fx := table2Fixture(b, 550, false)
	sites := fx.sites()
	db1, db3 := sites["DB1"], sites["DB3"]
	var (
		nav    *Navigation
		checks map[object.SiteID][]CheckItem
	)
	step := func(fn func(fabric.Proc)) {
		if _, err := fabric.NewReal(fabric.DefaultRates()).Run("bench", fn); err != nil {
			b.Fatal(err)
		}
	}
	step(func(p fabric.Proc) { nav, checks = db1.NavigateAll(p, fx.bound, nil) })
	for _, bench := range []struct {
		name string
		fn   func(fabric.Proc)
	}{
		{"Retrieve", func(p fabric.Proc) { db1.Retrieve(p, fx.bound) }},
		{"NavigateAll", func(p fabric.Proc) { db1.NavigateAll(p, fx.bound, nil) }},
		{"EvalNavigated", func(p fabric.Proc) { db1.EvalNavigated(p, fx.bound, nav) }},
		{"EvalLocalBasic", func(p fabric.Proc) { db1.EvalLocalBasic(p, fx.bound, nil) }},
		{"CheckAssistants", func(p fabric.Proc) { db3.CheckAssistants(p, checks["DB3"]) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				step(bench.fn)
			}
		})
	}
}
