package remote

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/workload"
)

// table2Workload generates the benchmark's table2_scan federation
// (benchmark/fed.go table2Params: three sites, chain C1->C2->C3 with 2/1/1
// predicates, 550 objects per class per site, null ratio 0.1, replica
// probability 0.1, two pad attributes).
func table2Workload(tb testing.TB) *workload.Workload { return table2WorkloadOf(tb, 550) }

// table2WorkloadOf is that federation with perSite objects per class and site.
func table2WorkloadOf(tb testing.TB, perSite int) *workload.Workload {
	tb.Helper()
	class := func(nPreds int, held [][]int) workload.ClassParams {
		return workload.ClassParams{NPreds: nPreds, NObjects: []int{perSite, perSite, perSite},
			NullRatio: []float64{0.1, 0.1, 0.1}, HeldPreds: held}
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
		tb.Fatal(err)
	}
	return w
}

// sameRows compares two row lists without allocating, so that a benchmark can
// check every answer and still report the system's allocations, not its own.
func sameRows(a, b []federation.ResultRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].GOid != b[i].GOid || len(a[i].Targets) != len(b[i].Targets) || !slices.Equal(a[i].Unknown, b[i].Unknown) {
			return false
		}
		for j, v := range a[i].Targets {
			if v.Kind() != b[i].Targets[j].Kind() || !v.Equal(b[i].Targets[j]) {
				return false
			}
		}
	}
	return true
}

// BenchmarkLiveCA runs the centralized approach alone over loopback TCP on
// the Table 2 federation, servers and coordinator built as the repository's
// benchmark builds them (a metrics registry, no tracer, zero-value options):
// what one CA query costs the whole process — three sites' scans and
// encodes, the coordinator's decodes, outerjoin and evaluation — in time,
// bytes and allocations. Every answer is compared with the in-process
// engine's.
func BenchmarkLiveCA(b *testing.B) { benchLive(b, exec.CA) }

// BenchmarkLiveBL is BenchmarkLiveCA for the basic localized approach: the
// sites' local queries and checks, the coordinator's decodes and
// certification.
func BenchmarkLiveBL(b *testing.B) { benchLive(b, exec.BL) }

// BenchmarkLivePL is BenchmarkLiveCA for the parallel localized approach.
func BenchmarkLivePL(b *testing.B) { benchLive(b, exec.PL) }

func benchLive(b *testing.B, alg exec.Algorithm) {
	w := table2Workload(b)
	reg := metrics.New()
	coord, _ := testCluster(b, &fedfile.Federation{Global: w.Global, Databases: w.Databases, Tables: w.Tables},
		&Coordinator{Metrics: reg}, func(_ object.SiteID, cfg *ServerConfig) { cfg.Signatures, cfg.Metrics = nil, reg })

	eng, err := exec.New(exec.Config{Global: w.Global, Coordinator: "G", Databases: w.Databases, Tables: w.Tables})
	if err != nil {
		b.Fatal(err)
	}
	ref, _, err := eng.Run(fabric.NewReal(fabric.DefaultRates()), alg, w.Bound)
	if err != nil {
		b.Fatal(err)
	}
	text := w.Query.String()
	if len(ref.Certain) == 0 || len(ref.Maybe) == 0 {
		b.Fatal("the reference answer lacks certain or maybe rows: too little would be compared")
	}
	query := func() {
		ans, _, err := coord.Query(text, alg)
		if err != nil {
			b.Fatal(err)
		}
		if !sameRows(ans.Certain, ref.Certain) || !sameRows(ans.Maybe, ref.Maybe) || ans.Degraded {
			b.Fatalf("live %v answers\n%s\nthe in-process reference\n%s", alg, summarize(ans), summarize(ref))
		}
	}
	query() // dial the pool, bind the text at every site

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// TestCAQueriesBesideInserts: centralized queries on a live three-site
// cluster while Coordinator.Insert stores new range-class objects and binds
// them — so the coordinator's tables number new entities, and the sites ship
// objects whose binding has not arrived yet, while views are being built
// (run with -race). Every answer is checked the way the repository's
// benchmark checks its mixed_rw workload: every reference row is there and any
// other row is an inserted entity; afterwards every acknowledged insert, and
// nothing else, answers a query for the inserted keys, as a certain row.
func TestCAQueriesBesideInserts(t *testing.T) {
	const (
		keyBase = 10_000_000
		inserts = 60
		readers = 2
		queries = 20
	)
	w := table2WorkloadOf(t, 200)
	eng, err := exec.New(exec.Config{Global: w.Global, Coordinator: "G", Databases: w.Databases, Tables: w.Tables})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := eng.Run(fabric.NewReal(fabric.DefaultRates()), exec.CA, w.Bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Certain)+len(ref.Maybe) == 0 {
		t.Fatal("the reference answer is empty: nothing would be compared")
	}

	// The objects to insert are made before the servers' stores change under
	// the readers: copies of a stored range object under a fresh key, so their
	// references point at objects the site holds.
	root := w.Global.Class(w.Bound.Query.Range)
	key := root.Key[0]
	type insert struct {
		site object.SiteID
		obj  *object.Object
	}
	var todo []insert
	rootSites := w.Bound.RootSites()
	for i := 0; i < inserts; i++ {
		site := rootSites[i%len(rootSites)]
		template := w.Databases[site].Extent(root.Constituents[site]).All()[0]
		attrs := map[string]object.Value{}
		for _, name := range template.AttrNames() {
			attrs[name] = template.Attr(name)
		}
		attrs[key] = object.Int(int64(keyBase + i))
		todo = append(todo, insert{site, object.New(object.LOid(fmt.Sprintf("n%d", i)), template.Class, attrs)})
	}

	matcher := isomer.NewMatcher(w.Global)
	if err := matcher.Adopt(w.Databases, w.Tables.Clone()); err != nil {
		t.Fatal(err)
	}
	coord, _ := testCluster(t, &fedfile.Federation{Global: w.Global, Databases: w.Databases, Tables: w.Tables},
		&Coordinator{Tables: matcher.Tables(), Matcher: matcher}, func(_ object.SiteID, cfg *ServerConfig) { cfg.Signatures = nil })

	// A row that is not the reference's can only be an inserted entity: the
	// matcher names those g<class>:<n>, and an object stored but not yet
	// bound goes by its synthetic "!" identity.
	inserted := func(g object.GOid) bool {
		return strings.HasPrefix(string(g), "!") || (strings.HasPrefix(string(g), "g") && strings.Contains(string(g), ":"))
	}
	covers := func(got []federation.ResultRow, want []federation.ResultRow) bool {
		have := map[object.GOid]bool{}
		for _, row := range got {
			have[row.GOid] = true
			if !inserted(row.GOid) && !slices.ContainsFunc(want, func(r federation.ResultRow) bool { return r.GOid == row.GOid }) {
				return false
			}
		}
		for _, row := range want {
			if !have[row.GOid] {
				return false
			}
		}
		return true
	}

	text := w.Query.String()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []object.GOid
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				ans, _, err := coord.Query(text, exec.CA)
				if err != nil {
					t.Errorf("CA query beside inserts: %v", err)
					return
				}
				if ans.Degraded || ans.Interrupted() || !covers(ans.Certain, ref.Certain) || !covers(ans.Maybe, ref.Maybe) {
					t.Errorf("CA beside inserts answers\n%s\nthe reference, before any insert, is\n%s", summarize(ans), summarize(ref))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, in := range todo {
			goid, err := coord.Insert(in.site, in.obj)
			if err != nil {
				t.Errorf("insert %s at %s: %v", in.obj.LOid, in.site, err)
				return
			}
			mu.Lock()
			acked = append(acked, goid)
			mu.Unlock()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	ans, _, err := coord.Query(fmt.Sprintf("select %s from %s where %s >= %d", key, root.Name, key, keyBase), exec.CA)
	if err != nil {
		t.Fatal(err)
	}
	got := ans.CertainGOids()
	slices.Sort(acked)
	if ans.Degraded || len(ans.Maybe) != 0 || !slices.Equal(got, acked) {
		t.Errorf("the inserted keys answer %v certain, %d maybe (degraded %v); acknowledged: %v", got, len(ans.Maybe), ans.Degraded, acked)
	}
	if n := coord.Tables.Table(root.Name).Len(); n != w.Tables.Table(root.Name).Len()+inserts {
		t.Errorf("the coordinator's %s table holds %d entities, want the generated %d and %d inserted",
			root.Name, n, w.Tables.Table(root.Name).Len(), inserts)
	}
}
