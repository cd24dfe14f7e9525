package remote

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/workload"
)

// fedCase is one federation and one query over it, runnable on every
// transport.
type fedCase struct {
	name   string
	global *schema.Global
	dbs    map[object.SiteID]*store.Database
	tables *gmap.Tables
	text   string
}

// transportCases is the table behind the cross-transport tests: the paper's
// school federation plus seeded Table 2 draws, shrunk for speed but keeping
// every structural feature (missing attributes, nulls, isomerism, chains);
// odd draws use equality predicates, the class the signature variants act on.
func transportCases(t *testing.T) []fedCase {
	t.Helper()
	fx := school.New()
	cases := []fedCase{{"school", fx.Global, fx.Databases, fx.Mapping, school.Q1}}
	for seed := int64(0); seed < 12; seed++ {
		r := workload.DefaultRanges()
		r.NObjects = [2]int{25, 45}
		r.EqualityPreds = seed%2 == 1
		rng := rand.New(rand.NewSource(seed))
		w, err := workload.Generate(r.Draw(rng), rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases = append(cases, fedCase{fmt.Sprintf("draw%d", seed), w.Global, w.Databases, w.Tables, w.Query.String()})
	}
	return cases
}

// summarize renders everything an answer says — the certain/maybe split and
// which sites it went without (not why: reasons are transport prose).
func summarize(a *federation.Answer) string {
	var b strings.Builder
	b.WriteString("certain:")
	for _, r := range a.Certain {
		fmt.Fprintf(&b, " %s", r)
	}
	b.WriteString(" maybe:")
	for _, r := range a.Maybe {
		fmt.Fprintf(&b, " %s", r)
	}
	b.WriteString(" unavailable:")
	for _, f := range a.Unavailable {
		fmt.Fprintf(&b, " %s", f.Site)
	}
	return b.String()
}

// runEverywhere executes the case's query under every strategy on the three
// transports — in-process on the real fabric, in-process on the DES, and a
// TCP cluster — with the given site (if any) killed by a fault plan, and
// returns the answers as [transport][algorithm].
func runEverywhere(t *testing.T, c fedCase, kill object.SiteID) map[string]map[exec.Algorithm]*federation.Answer {
	t.Helper()
	plan := func() *fabric.FaultPlan {
		if kill == "" {
			return nil
		}
		return fabric.NewFaultPlan().Kill(kill)
	}
	b, err := query.Bind(query.MustParse(c.text), c.global)
	if err != nil {
		t.Fatalf("%s: bind: %v", c.name, err)
	}
	eng, err := exec.New(exec.Config{
		Global: c.global, Coordinator: "G", Databases: c.dbs, Tables: c.tables,
		Signatures: signature.Build(c.dbs),
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	fed := &fedfile.Federation{Global: c.global, Databases: c.dbs, Tables: c.tables}
	coord, cluster := testCluster(t, fed, observedCoordinator(), func(site object.SiteID, cfg *ServerConfig) {
		observed(site, cfg)
		cfg.Faults = plan()
	})
	defer cluster.Close() // one cluster per case, not one per test

	out := map[string]map[exec.Algorithm]*federation.Answer{"real": {}, "sim": {}, "tcp": {}}
	for _, alg := range exec.AllAlgorithms() {
		runs := map[string]func() (*federation.Answer, error){
			"real": func() (*federation.Answer, error) {
				ans, _, err := eng.Run(fabric.NewReal(fabric.DefaultRates()).WithFaults(plan()), alg, b)
				return ans, err
			},
			"sim": func() (*federation.Answer, error) {
				ans, _, err := eng.Run(fabric.NewSim(fabric.DefaultRates(), eng.Sites()).WithFaults(plan()), alg, b)
				return ans, err
			},
			"tcp": func() (*federation.Answer, error) {
				ans, _, err := coord.Query(c.text, alg)
				return ans, err
			},
		}
		for name, run := range runs {
			ans, err := run()
			if err != nil {
				t.Fatalf("%s/%s/%v (kill %q): %v", c.name, name, alg, kill, err)
			}
			out[name][alg] = ans
		}
	}
	return out
}

// TestAlgorithmsAgreeAcrossTransports is invariant 1 from one table: every
// strategy returns a byte-identical answer on all three transports, and on
// a healthy federation BL ≡ PL, SBL ≡ BL, SPL ≡ PL and the localized
// answers are sound against CA's fully integrated view. With one site
// killed the transports must still agree on the certain/maybe split and on
// which sites were unavailable. The school row also pins the paper's Q1
// answer itself.
func TestAlgorithmsAgreeAcrossTransports(t *testing.T) {
	const paperQ1 = "certain: gs4(Hedy, Kelly) maybe: gs2(Tony, Haley) unavailable:"
	for i, c := range transportCases(t) {
		kills := []object.SiteID{""}
		if i < 4 { // the kill-one-site rows: school and the first draws
			sites := make([]object.SiteID, 0, len(c.dbs))
			for s := range c.dbs {
				sites = append(sites, s)
			}
			sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
			kills = append(kills, sites[len(sites)-1])
		}
		for _, kill := range kills {
			got := runEverywhere(t, c, kill)
			for _, alg := range exec.AllAlgorithms() {
				want := summarize(got["real"][alg])
				for _, tr := range []string{"sim", "tcp"} {
					if s := summarize(got[tr][alg]); s != want {
						t.Errorf("%s/%v (kill %q): %s differs from in-process real:\n %s: %s\n real: %s",
							c.name, alg, kill, tr, tr, s, want)
					}
				}
			}
			ans := got["tcp"]
			if kill != "" {
				if fs := ans[exec.CA].Unavailable; len(fs) != 1 || fs[0].Site != kill {
					t.Errorf("%s: CA with %s killed reports unavailable %v", c.name, kill, fs)
				}
				continue
			}
			for alg, a := range ans {
				if got := summarize(a); c.name == "school" && got != paperQ1 {
					t.Errorf("school %v = %q, want %q", alg, got, paperQ1)
				}
			}
			for alg, twin := range map[exec.Algorithm]exec.Algorithm{exec.PL: exec.BL, exec.SBL: exec.BL, exec.SPL: exec.PL} {
				if a, b := summarize(ans[alg]), summarize(ans[twin]); a != b {
					t.Errorf("%s: %v differs from %v:\n %s\n %s", c.name, alg, twin, a, b)
				}
			}
			assertLocalizedWithinCA(t, c.name, ans[exec.BL], ans[exec.CA])
		}
	}
}

// TestUnboundObjectHasOneIdentity: an object stored at a site that no mapping
// table names — the state between a store request and its bind broadcast —
// goes by one synthetic GOid under every strategy on every transport. The
// centralized approach used to name it "!<site>:<loid>" and the localized
// ones "!<class>:<site>:<loid>", so the same row of the same query came back
// under two identities.
func TestUnboundObjectHasOneIdentity(t *testing.T) {
	fx := school.New()
	fx.Databases["DB1"].MustInsert(object.New("s99", "Student", map[string]object.Value{
		"s-no": object.Int(999_999), "name": object.Str("Nova"), "age": object.Int(40),
	}))
	c := fedCase{"school+unbound", fx.Global, fx.Databases, fx.Mapping, `select name from Student where age > 35`}
	want := fx.Mapping.Table("Student").Unbound("DB1", "s99")
	for transport, answers := range runEverywhere(t, c, "") {
		for alg, ans := range answers {
			var got []object.GOid
			for _, row := range ans.Certain {
				if row.Targets[0].Equal(object.Str("Nova")) {
					got = append(got, row.GOid)
				}
			}
			if len(got) != 1 || got[0] != want {
				t.Errorf("%s/%v: the unbound student is certain as %v, want [%s]\n%s", transport, alg, got, want, summarize(ans))
			}
		}
	}
}

// assertLocalizedWithinCA checks the localized answer against CA's: no false
// certification (BL-certain ⊆ CA-certain) and the same surviving entities
// (neither eliminates what the other keeps). BL may hold as maybe an entity
// CA decides, because certification uses one level of assistance while CA
// merges transitively.
func assertLocalizedWithinCA(t *testing.T, name string, bl, ca *federation.Answer) {
	t.Helper()
	set := func(lists ...[]object.GOid) map[object.GOid]bool {
		out := map[object.GOid]bool{}
		for _, l := range lists {
			for _, g := range l {
				out[g] = true
			}
		}
		return out
	}
	caCertain := set(ca.CertainGOids())
	blAll, caAll := set(bl.CertainGOids(), bl.MaybeGOids()), set(ca.CertainGOids(), ca.MaybeGOids())
	for _, g := range bl.CertainGOids() {
		if !caCertain[g] {
			t.Errorf("%s: %s certain under BL but not under CA", name, g)
		}
	}
	for g := range caAll {
		if !blAll[g] {
			t.Errorf("%s: %s kept by CA but eliminated by BL", name, g)
		}
	}
	for g := range blAll {
		if !caAll[g] {
			t.Errorf("%s: %s kept by BL but eliminated by CA", name, g)
		}
	}
}

// TestChecksDispatchedCountedOnce: checks_dispatched_total counts every item
// bound for a check target, once, whatever the transport and whatever
// becomes of the target — dead in process, missing from the peer wiring
// over TCP.
func TestChecksDispatchedCountedOnce(t *testing.T) {
	fx := school.New()
	b := query.MustBind(query.MustParse(school.Q1), fx.Global)
	inproc := func(fp *fabric.FaultPlan) func(*testing.T, exec.Algorithm) int64 {
		return func(t *testing.T, alg exec.Algorithm) int64 {
			reg := metrics.New()
			eng, err := exec.New(exec.Config{Global: fx.Global, Coordinator: "G",
				Databases: fx.Databases, Tables: fx.Mapping, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.Run(fabric.NewReal(fabric.DefaultRates()).WithFaults(fp), alg, b); err != nil {
				t.Fatal(err)
			}
			return reg.Snapshot().Sum("checks_dispatched_total")
		}
	}
	tcp := func(unwire object.SiteID) func(*testing.T, exec.Algorithm) int64 {
		return func(t *testing.T, alg exec.Algorithm) int64 {
			coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
			servers := serversOf(cluster)
			if unwire != "" {
				peers := map[object.SiteID]string{}
				for site, addr := range coord.Sites {
					if site != unwire {
						peers[site] = addr
					}
				}
				for _, srv := range servers {
					srv.SetPeers(peers)
				}
			}
			if _, _, err := coord.Query(school.Q1, alg); err != nil {
				t.Fatal(err)
			}
			var n int64
			for _, srv := range servers {
				n += srv.cfg.Metrics.Snapshot().Sum("checks_dispatched_total")
			}
			return n
		}
	}
	rows := []struct {
		name  string
		count func(*testing.T, exec.Algorithm) int64
	}{
		{"in-process healthy", inproc(nil)},
		{"in-process DB3 dead", inproc(fabric.NewFaultPlan().Kill("DB3"))},
		{"tcp healthy", tcp("")},
		{"tcp DB3 unwired", tcp("DB3")},
	}
	for _, alg := range []exec.Algorithm{exec.BL, exec.PL} {
		want := rows[0].count(t, alg)
		if want == 0 {
			t.Fatalf("%v dispatched no checks on the school federation", alg)
		}
		for _, row := range rows[1:] {
			if got := row.count(t, alg); got != want {
				t.Errorf("%v %s: checks_dispatched_total = %d, want %d", alg, row.name, got, want)
			}
		}
	}
}

// TestViewSlotsStayInTheView: the view slot the centralized approach stamps
// on a translated reference (object.RefAt) reaches no answer, in process or
// over TCP, and no stored object — the source of every retrieve frame — so no
// frame carries one. The query's targets end at references, so the answers'
// rows hold what the view's objects held, translated to global references.
func TestViewSlotsStayInTheView(t *testing.T) {
	fx := school.New()
	c := fedCase{"school", fx.Global, fx.Databases, fx.Mapping,
		`select name, advisor, advisor.department from Student where advisor.speciality = "database"`}
	refs := 0
	everywhere := runEverywhere(t, c, "")
	for transport, answers := range everywhere {
		ans := answers[exec.CA]
		if got, want := summarize(ans), summarize(everywhere["real"][exec.CA]); got != want {
			t.Errorf("%s: CA answers %s, in process %s", transport, got, want)
		}
		for _, row := range append(slices.Clone(ans.Certain), ans.Maybe...) {
			for _, v := range row.Targets {
				if v.Kind() == object.KindGRef {
					refs++
				}
				if _, ok := v.RefSlot(); ok {
					t.Errorf("%s: row %s carries a view slot in %v", transport, row.GOid, v)
				}
			}
		}
	}
	if refs == 0 {
		t.Error("no answer held a reference: the query checks nothing")
	}
	for site, db := range c.dbs {
		for _, class := range db.Schema().ClassNames() {
			db.Extent(class).Scan(func(o *object.Object) bool {
				for i := 0; i < o.Len(); i++ {
					name, v := o.At(i)
					for _, e := range append([]object.Value{v}, v.Elems()...) {
						if _, ok := e.RefSlot(); ok {
							t.Errorf("%s: stored %s.%s carries a view slot", site, o.LOid, name)
						}
					}
				}
				return true
			})
		}
	}
}
