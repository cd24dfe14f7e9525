package remote

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/workload"
)

// table2Workload generates the benchmark's table2_scan federation
// (benchmark/fed.go table2Params: three sites, chain C1->C2->C3 with 2/1/1
// predicates, 550 objects per class per site, null ratio 0.1, replica
// probability 0.1, two pad attributes).
func table2Workload(tb testing.TB) *workload.Workload {
	tb.Helper()
	class := func(nPreds int, held [][]int) workload.ClassParams {
		return workload.ClassParams{NPreds: nPreds, NObjects: []int{550, 550, 550},
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
func BenchmarkLiveCA(b *testing.B) {
	w := table2Workload(b)
	reg := metrics.New()
	addrs := make(map[object.SiteID]string, len(w.Databases))
	for site, db := range w.Databases {
		srv, err := NewServer(ServerConfig{DB: db, Global: w.Global, Tables: w.Tables, Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[site] = srv.Addr()
	}
	coord := &Coordinator{ID: "G", Global: w.Global, Tables: w.Tables, Sites: addrs, Metrics: reg}
	defer coord.Close()

	eng, err := exec.New(exec.Config{Global: w.Global, Coordinator: "G", Databases: w.Databases, Tables: w.Tables})
	if err != nil {
		b.Fatal(err)
	}
	ref, _, err := eng.Run(fabric.NewReal(fabric.DefaultRates()), exec.CA, w.Bound)
	if err != nil {
		b.Fatal(err)
	}
	text := w.Query.String()
	if len(ref.Certain) == 0 || len(ref.Maybe) == 0 {
		b.Fatal("the reference answer lacks certain or maybe rows: too little would be compared")
	}
	query := func() {
		ans, _, err := coord.Query(text, exec.CA)
		if err != nil {
			b.Fatal(err)
		}
		if !sameRows(ans.Certain, ref.Certain) || !sameRows(ans.Maybe, ref.Maybe) || ans.Degraded {
			b.Fatalf("live CA answers\n%s\nthe in-process reference\n%s", summarize(ans), summarize(ref))
		}
	}
	query() // dial the pool, bind the text at every site

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}
