package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/object"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"school", "table2"} {
		a, err := buildFed(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildFed(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		for i := 0; i < 60; i++ {
			va, aa := a.op(i, 1, strategies)
			vb, ab := b.op(i, 1, strategies)
			if va != vb || aa != ab {
				t.Fatalf("%s: op %d differs between two builds of one seed", name, i)
			}
		}
		c, err := buildFed(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.shape() != c.shape() {
			t.Errorf("%s: the seed changed the federation's shape", name)
		}
		if name == "table2" && a.digest() == c.digest() {
			t.Errorf("%s: another seed gave the same data", name)
		}
	}
}

// TestSeedKeepsTheWork: the seed redraws the values queries return, never
// what decides how much work a query is. Every seed's variants select the
// same entities, and the stored objects differ only in t0 and the pads.
func TestSeedKeepsTheWork(t *testing.T) {
	a, err := buildFed("table2", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFed("table2", 8)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for _, site := range a.Sites {
		for _, class := range a.Databases[site].Schema().ClassNames() {
			for _, oa := range a.Databases[site].Extent(class).All() {
				ob := b.Databases[site].Extent(class).Get(oa.LOid)
				if ob == nil {
					t.Fatalf("%s %s is missing under the other seed", site, oa.LOid)
				}
				for _, name := range a.Databases[site].Schema().Class(class).AttrNames() {
					redrawn := name == "t0" || strings.HasPrefix(name, "pad")
					same := oa.Attr(name).Equal(ob.Attr(name)) || (oa.Attr(name).IsNull() && ob.Attr(name).IsNull())
					if !redrawn && !same {
						t.Fatalf("%s %s.%s differs between seeds: %v and %v", site, oa.LOid, name, oa.Attr(name), ob.Attr(name))
					}
					if redrawn && !same {
						differ++
					}
				}
				// Isomeric objects must still agree after the redraw.
				g, _ := a.Tables.Table(class).GOidOf(site, oa.LOid)
				for _, loc := range a.Tables.Table(class).Locations(g) {
					twin := a.Databases[loc.Site].Extent(class).Get(loc.LOid)
					if !twin.Attr("t0").Equal(oa.Attr("t0")) {
						t.Fatalf("isomeric objects %s@%s and %s@%s disagree on t0", oa.LOid, site, loc.LOid, loc.Site)
					}
				}
			}
		}
	}
	if differ == 0 {
		t.Error("another seed redrew no value")
	}
	if err := a.computeRefs(); err != nil {
		t.Fatal(err)
	}
	if err := b.computeRefs(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Refs, b.Refs) {
		t.Error("the variants select different entities under another seed")
	}
}

// TestSpeedIndex: the index is the geometric mean of median kernel time over
// reference time, and 1 when nothing was recorded.
func TestSpeedIndex(t *testing.T) {
	var s calSamples
	if got := s.index(); got != 1 {
		t.Errorf("index of no samples = %v, want 1", got)
	}
	s.ms = make([][]float64, len(kernels))
	for k := range kernels {
		factor := 2.0
		if k == 0 {
			factor = 2 * 32 // one kernel 32 times slower: a fifth of the exponent
		}
		ref := kernels[k].refMs
		s.ms[k] = []float64{ref * factor / 10, ref * factor, ref * factor * 10}
	}
	if got, want := s.index(), 2*math.Pow(32, 1/float64(len(kernels))); math.Abs(got-want) > 1e-9 {
		t.Errorf("index = %v, want %v", got, want)
	}
	m := metricSet{}
	m.putTime("ca_p50_ms", 3, 1.5, 10, false)
	if v := m["ca_p50_ms"]; v.Value != 2 || v.Raw != 3 {
		t.Errorf("3 ms at index 1.5 reported as %v (raw %v), want 2 (raw 3)", v.Value, v.Raw)
	}
}

// TestTypicalRate: the rate at the median pace; one stalled pass through the
// rotation does not move it.
func TestTypicalRate(t *testing.T) {
	r := blockResult{RoundMs: []float64{30, 31, 29, 30, 900}, roundSize: 3}
	if got := r.typicalRate(); got != 100 { // 3 queries per 30 ms
		t.Errorf("typical rate = %v, want 100", got)
	}
	if got := (&blockResult{}).typicalRate(); got != 0 {
		t.Errorf("typical rate of no pass = %v, want 0", got)
	}
}

func TestRotation(t *testing.T) {
	fd, err := buildFed("school", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		v, alg := fd.op(i, 1, strategies)
		if alg != strategies[i%3] {
			t.Fatalf("op %d runs %v, want the rotation's %v", i, alg, strategies[i%3])
		}
		if want := fd.Order[(i/3)%len(fd.Order)]; v != want {
			t.Fatalf("op %d runs variant %d, want %d: the variant advances every third query", i, v, want)
		}
		// Two clients take ops 2i and 2i+1 of one round: same strategy, same variant.
		v0, a0 := fd.op(2*i, 2, strategies)
		v1, a1 := fd.op(2*i+1, 2, strategies)
		if a0 != alg || a1 != alg || v0 != v || v1 != v {
			t.Fatalf("round %d of two clients runs %v/%d and %v/%d, want both %v/%d", i, a0, v0, a1, v1, alg, v)
		}
	}
}

func TestInserterRepeats(t *testing.T) {
	fd, err := buildFed("table2", 3)
	if err != nil {
		t.Fatal(err)
	}
	make10 := func() []string {
		in, err := newInserter(fd, 3)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 10; i++ {
			site, o := in.next()
			if fd.Databases[site].Extent(o.Class) == nil {
				t.Fatalf("object %d goes to %s, which has no class %s", i, site, o.Class)
			}
			out = append(out, string(site)+" "+o.String())
		}
		return out
	}
	if a, b := make10(), make10(); !reflect.DeepEqual(a, b) {
		t.Errorf("the inserted objects differ between two runs of one seed:\n%v\n%v", a, b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50}} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if samples[0] != 15 {
		t.Error("percentile reordered its input")
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 50, false},
		{19, 50, false}, // rank 10, 9 beyond
		{20, 50, true},  // rank 10, 10 beyond
		{199, 95, false},
		{200, 95, true}, // rank 190, 10 beyond
		{999, 99, false},
		{1000, 99, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// TestPacedTimesFromDueTime stalls the second of four operations past the
// next two due times on a fake clock: the delayed operations' latencies
// must include the wait the stall imposed on them.
func TestPacedTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clock := start
	now := func() time.Time { return clock }
	sleep := func(d time.Duration) { clock = clock.Add(d) }
	cost := []time.Duration{1 * time.Millisecond, 25 * time.Millisecond, 1 * time.Millisecond, 1 * time.Millisecond}
	lat, late := paced(start, 10*time.Millisecond, 40*time.Millisecond, now, sleep, func(i int) bool {
		clock = clock.Add(cost[i])
		return true
	})
	wantLat := []float64{1, 25, 16, 7} // op 2 is due at 20 ms, sent at 35 ms, done at 36 ms
	wantLate := []float64{0, 0, 15, 6}
	if !reflect.DeepEqual(lat, wantLat) {
		t.Errorf("latencies %v, want %v (measured from the due time)", lat, wantLat)
	}
	if !reflect.DeepEqual(late, wantLate) {
		t.Errorf("lateness %v, want %v", late, wantLate)
	}
}

func TestPacedDropsFailedLatency(t *testing.T) {
	start := time.Unix(0, 0)
	clock := start
	lat, late := paced(start, time.Millisecond, 3*time.Millisecond,
		func() time.Time { return clock }, func(d time.Duration) { clock = clock.Add(d) },
		func(i int) bool { return i != 1 })
	if len(lat) != 2 || len(late) != 3 {
		t.Errorf("%d latencies and %d lateness samples, want 2 and 3: a failed operation has no latency", len(lat), len(late))
	}
}

func goids(ids ...string) []object.GOid {
	out := make([]object.GOid, len(ids))
	for i, id := range ids {
		out[i] = object.GOid(id)
	}
	return out
}

func TestCoversWithInserts(t *testing.T) {
	ref := goids("g1", "g2")
	for _, c := range []struct {
		got  []string
		want bool
	}{
		{[]string{"g1", "g2"}, true},
		{[]string{"g1", "g2", "gC1:7"}, true},      // a bound inserted entity
		{[]string{"!C1:DB2:n4", "g1", "g2"}, true}, // stored, binding still on its way
		{[]string{"g1"}, false},
		{[]string{"g1", "g2", "g3"}, false},
	} {
		if got := coversWithInserts(goids(c.got...), ref); got != c.want {
			t.Errorf("coversWithInserts(%v) = %v, want %v", c.got, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogMatchesBenchmarkJSON keeps the catalog in spec.go and the
// declaration in BENCHMARK.json equal.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default window is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the catalog", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q has characters outside [A-Za-z0-9_.-] or is too long", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, catalog has %q: %q", i, decl.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: its why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the catalog", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		unique(m.Name)
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, catalog has %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the catalog", len(decl.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 fit the declaration", len(perLayer))
	}
	for i, m := range perLayer {
		unique(m.Name)
		d := decl.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: declared %+v, catalog has %+v", i, d, m)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("the spread of one run is unknown")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.03, 0.10, "ok"},
		{-0.30, 0.03, 0.10, "ok"}, // better is never a regression
		{0.12, 0.03, 0.10, "regressed"},
		{0.12, 0.20, 0.10, "unresolved"}, // the runs disagree among themselves by more than the bound
		{0.12, math.NaN(), 0.10, "regressed"},
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %q, want %q", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

func TestCompareRefusesQuick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quick.json")
	if err := writeJSON(path, &report{Env: envRecord{Quick: true}}); err != nil {
		t.Fatal(err)
	}
	err := compareFiles(&bytes.Buffer{}, path, path)
	if err == nil || !strings.Contains(err.Error(), "-quick") {
		t.Errorf("comparing a quick result: %v, want a refusal", err)
	}
}

// TestBlocksOnLiveClusters drives both cluster forms for a fraction of a
// second: answers must match their references with two clients at once, and
// every acknowledged insert must be readable afterwards.
func TestBlocksOnLiveClusters(t *testing.T) {
	fd, err := buildFed("school", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.computeRefs(); err != nil {
		t.Fatal(err)
	}
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	for _, c := range []struct {
		name string
		opts clusterOpts
		spec blockSpec
	}{
		{"plain", clusterOpts{}, blockSpec{Clients: 2, Algs: strategies, Dur: 300 * time.Millisecond}},
		{"traced", clusterOpts{Traced: true}, blockSpec{Clients: 1, Algs: strategies[:1], Dur: 100 * time.Millisecond}},
		{"durable", clusterOpts{Durable: true, Dir: t.TempDir(), Seed: 5}, blockSpec{Clients: 1, Algs: strategies, Writer: true, Dur: 300 * time.Millisecond, Cal: cal}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, err := startCluster(fd, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.close()
			if err := warmup(cl, 15); err != nil {
				t.Fatal(err)
			}
			res, err := runBlock(cl, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.queries() == 0 {
				t.Fatalf("%d of %d operations failed (%s), %d queries succeeded", res.Failed, res.Attempted, res.FirstFailure, res.queries())
			}
			if c.spec.Cal != nil && (res.Cal.rounds() < 2 || res.Cal.spent <= 0 || res.Cal.spent >= res.Wall) {
				t.Errorf("%d calibration rounds taking %v of %v", res.Cal.rounds(), res.Cal.spent, res.Wall)
			}
			if c.spec.Clients == 1 && (len(res.RoundMs) == 0 || len(res.RoundMs) > res.queries()/len(c.spec.Algs)) {
				t.Errorf("%d passes through the rotation for %d queries", len(res.RoundMs), res.queries())
			}
			if c.spec.Writer && (len(res.InsertMs) == 0 || len(cl.acked) != len(res.InsertMs)) {
				t.Errorf("%d insert samples for %d acknowledged inserts", len(res.InsertMs), len(cl.acked))
			}
			if err := cl.close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
	}
}
