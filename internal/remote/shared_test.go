package remote

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// TestPlanTableBindsEachTextOnce: a query text is parsed and bound on its
// first use and shared, as one immutable *query.Bound, by every later one; a
// text that fails is not remembered; a flood of distinct texts never holds
// more than the table's constant size. The server's and the coordinator's
// table are this one type.
func TestPlanTableBindsEachTextOnce(t *testing.T) {
	global := school.New().Global
	var plans planTable

	first, err := plans.bind(school.Q1, global)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b, err := plans.bind(school.Q1, global); err != nil || b != first {
				t.Errorf("rebinding the same text: %p, %v; want the first bound query %p", b, err, first)
			}
		}()
	}
	wg.Wait()
	for _, bad := range []string{"select", "select name from Nowhere"} {
		for i := 0; i < 2; i++ {
			if _, err := plans.bind(bad, global); err == nil {
				t.Errorf("%q was bound", bad)
			}
		}
	}
	if n := len(plans.bound); n != 1 {
		t.Errorf("%d texts held after one good and two bad ones", n)
	}

	for i := 0; i < 3*maxBoundQueries; i++ {
		text := fmt.Sprintf(`select name from Student where name = "n%d"`, i)
		if _, err := plans.bind(text, global); err != nil {
			t.Fatal(err)
		}
		if n := len(plans.bound); n > maxBoundQueries {
			t.Fatalf("%d bound queries held after %d texts, cap %d", n, i+1, maxBoundQueries)
		}
	}
	if again, err := plans.bind(school.Q1, global); err != nil || again == nil || again == first {
		t.Errorf("binding after the table was dropped: %p, %v (first %p)", again, err, first)
	}
}

// TestCoordinatorBindsEachTextOnce: QueryContext goes through the table, and
// a text that does not bind fails every time it is sent.
func TestCoordinatorBindsEachTextOnce(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)
	for i := 0; i < 3; i++ {
		if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
			t.Fatal(err)
		}
		if _, _, err := coord.Query("select name from Nowhere", exec.BL); err == nil {
			t.Error("a query over an unknown class ran")
		}
	}
	if n := len(coord.plans.bound); n != 1 {
		t.Errorf("coordinator holds %d plans after one good text", n)
	}
}

// TestSharedRuntimeAccountsEachRunAlone: a coordinator and each server run
// everything on one fabric.Real. Eight queries at once must stamp the counts
// they stamp one at a time — on every serve span, and in the coordinator's
// own totals — because sinks and byte counters belong to the run.
func TestSharedRuntimeAccountsEachRunAlone(t *testing.T) {
	coord, _ := testCluster(t, nil, observedCoordinator(), observed)
	type job struct {
		text string
		alg  exec.Algorithm
	}
	var jobs []job
	for _, text := range []string{school.Q1, `select name from Student where age < 30 and address.city = "Taipei"`} {
		for _, alg := range []exec.Algorithm{exec.CA, exec.BL, exec.PL, exec.SPL} {
			jobs = append(jobs, job{text, alg})
		}
	}
	// signature is one query's work as its profile holds it: the counts each
	// serving site stamped, span by span, and the query's totals, which add
	// the coordinator's own run.
	signature := func(p *trace.Profile) string {
		var parts []string
		for _, s := range p.Spans {
			if strings.HasPrefix(s.Name, "serve:") {
				parts = append(parts, fmt.Sprintf("%s %s cpu=%d disk=%d", s.Site, s.Name, s.Counters["cpu_ops"], s.Counters["disk_bytes"]))
			}
		}
		slices.Sort(parts)
		return fmt.Sprintf("%s rows=%d/%d total cpu=%d disk=%d net=%d | %s", p.Alg, p.Certain, p.Maybe,
			p.Counters["cpu_ops"], p.Counters["disk_bytes"], p.Counters["net_bytes"], strings.Join(parts, "; "))
	}
	run := func(concurrent bool) []string {
		rec := obs.NewRecorder(obs.RecorderConfig{Site: "G"})
		coord.Recorder = rec
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			query := func() {
				defer wg.Done()
				if _, _, err := coord.Query(j.text, j.alg); err != nil {
					t.Errorf("%v %q: %v", j.alg, j.text, err)
				}
			}
			if concurrent {
				go query()
			} else {
				query()
			}
		}
		wg.Wait()
		var sigs []string
		for _, p := range rec.Profiles() {
			sigs = append(sigs, signature(p))
		}
		slices.Sort(sigs)
		return sigs
	}
	alone := run(false)
	if len(alone) != len(jobs) || !strings.Contains(alone[0], "serve:") {
		t.Fatalf("%d profiles for %d queries; first: %v", len(alone), len(jobs), alone)
	}
	for round := 0; round < 5; round++ {
		if together := run(true); !slices.Equal(alone, together) {
			t.Fatalf("round %d: work stamped by concurrent queries differs\nalone:    %s\ntogether: %s",
				round, strings.Join(alone, "\n          "), strings.Join(together, "\n          "))
		}
	}
}

// schoolTexts are the Q1-family texts of the repository's school_rpc
// workload (benchmark/fed.go).
var schoolTexts = []string{
	school.Q1,
	`select name from Student where age < 30 and address.city = "Taipei"`,
	`select name, advisor.name from Student where advisor.speciality = "database"`,
	`select name from Student where advisor.department.name = "CS" and sex = "F"`,
	`select name, address.city from Student where address.city = "Taipei"`,
}

// BenchmarkLiveSchool is the school_rpc workload as a Go benchmark, for
// profiles: 0.1 ms queries over loopback TCP, CA → BL → PL over the five
// texts, servers and coordinator built as the repository's benchmark builds
// them. What it costs is the fixed work around a query and a served request,
// not evaluation. One op is one query.
func BenchmarkLiveSchool(b *testing.B) {
	reg := metrics.New()
	coord, _ := testCluster(b, nil, &Coordinator{Metrics: reg}, func(_ object.SiteID, cfg *ServerConfig) {
		cfg.Signatures, cfg.Metrics = nil, reg
	})
	algs := []exec.Algorithm{exec.CA, exec.BL, exec.PL}
	query := func(i int) {
		text := schoolTexts[i/len(algs)%len(schoolTexts)]
		if _, _, err := coord.Query(text, algs[i%len(algs)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < len(algs)*len(schoolTexts); i++ {
		query(i) // dial the pools, bind the texts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
}
