package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/eval"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/store/wal"
)

// probeBatches is the number of batches a probe runs; it reports the median
// batch.
const probeBatches = 5

// probe times a fixed-iteration loop over one exported function: it runs
// probeBatches batches, each calling fn once, and returns the median time
// per unit in nanoseconds, where fn returns the number of units (calls,
// objects) its batch covered.
func probe(fn func() int) float64 {
	per := make([]float64, 0, probeBatches)
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		units := fn()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return median(per)
}

// allocsPer returns the mean number of heap allocations of one call of fn,
// measured over calls calls.
func allocsPer(calls int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probeLayers runs the single-function probes on the workload's own
// federation and variants and records the query, eval, store, gmap, wal and
// metrics metrics.
func probeLayers(fd *fedData, tmpDir string, m metricSet) error {
	const calls = 200 // per variant and batch

	// query: Parse and Bind are paid once at the coordinator and once more
	// at every site a request reaches; LocalizeAll is the per-site split.
	parsed := make([]*query.Query, len(fd.Queries))
	for i, text := range fd.Queries {
		q, err := query.Parse(text)
		if err != nil {
			return err
		}
		parsed[i] = q
	}
	nq := len(fd.Queries) * calls
	m.put("query.parse_us", probe(func() int {
		for i := 0; i < calls; i++ {
			for _, text := range fd.Queries {
				sink, _ = query.Parse(text)
			}
		}
		return nq
	})/1e3, nq)
	m.put("query.bind_us", probe(func() int {
		for i := 0; i < calls; i++ {
			for _, q := range parsed {
				sink, _ = query.Bind(q, fd.Global)
			}
		}
		return nq
	})/1e3, nq)
	m.put("query.localize_us", probe(func() int {
		for i := 0; i < calls; i++ {
			for _, b := range fd.Bounds {
				sink = b.LocalizeAll()
			}
		}
		return nq
	})/1e3, nq)
	m.put("query.parse_bind_allocs", allocsPer(calls, func() {
		q, _ := query.Parse(fd.Queries[0])
		sink, _ = query.Bind(q, fd.Global)
	}), calls)

	// eval: every predicate of every variant on every root object, through
	// the same buffered source a site uses.
	rootObjects := 0
	evalNs := probe(func() int {
		n := 0
		for _, b := range fd.Bounds {
			gc := fd.Global.Class(b.Query.Range)
			for _, site := range b.RootSites() {
				db := fd.Databases[site]
				src := eval.NewCached(eval.DiskSource{DB: db})
				local, _ := eval.SplitPredIdx(b, site)
				db.Extent(gc.Constituents[site]).Scan(func(o *object.Object) bool {
					sink = eval.EvalObject(src, b, local, o, cost.Discard)
					n++
					return true
				})
			}
		}
		rootObjects = n
		return n
	})
	m.put("eval.object_ns", evalNs, rootObjects)

	// store: scan every extent; insert every object of the first site into
	// a fresh in-memory database.
	total := fd.objects()
	m.put("store.scan_ns_per_object", probe(func() int {
		n := 0
		for n < 20000 { // small federations are scanned repeatedly
			for _, site := range fd.Sites {
				db := fd.Databases[site]
				for _, class := range db.Schema().ClassNames() {
					db.Extent(class).Scan(func(o *object.Object) bool {
						n++
						return true
					})
				}
			}
		}
		return n
	}), total)
	first := fd.Databases[fd.Sites[0]]
	var firstObjects []*object.Object
	var userBytes int
	for _, class := range first.Schema().ClassNames() {
		for _, o := range first.Extent(class).All() {
			firstObjects = append(firstObjects, o)
			userBytes += o.WireSize(nil)
		}
	}
	var probeErr error
	m.put("store.insert_us", probe(func() int {
		n := 0
		for n < 2000 {
			db, err := store.NewDatabase(first.Schema())
			if err != nil {
				probeErr = err
				return 1
			}
			for _, o := range firstObjects {
				if err := db.Insert(o); err != nil {
					probeErr = err
				}
			}
			n += len(firstObjects)
		}
		return n
	})/1e3, len(firstObjects))
	if probeErr != nil {
		return fmt.Errorf("store probe: %w", probeErr)
	}

	// gmap: one GOidOf per stored object and one Locations per entity of the
	// range class, then the same bindings into a fresh table.
	rootClass := fd.Bounds[0].Query.Range
	table := fd.Tables.Table(rootClass)
	type binding struct {
		goid object.GOid
		loc  gmap.Location
	}
	var bindings []binding
	goids := table.GOids()
	for _, g := range goids {
		for _, loc := range table.Locations(g) {
			bindings = append(bindings, binding{g, loc})
		}
	}
	const gmapRounds = 20
	m.put("gmap.goid_of_ns", probe(func() int {
		for r := 0; r < gmapRounds; r++ {
			for _, b := range bindings {
				sink, _ = table.GOidOf(b.loc.Site, b.loc.LOid)
			}
		}
		return gmapRounds * len(bindings)
	}), len(bindings))
	m.put("gmap.locations_ns", probe(func() int {
		for r := 0; r < gmapRounds; r++ {
			for _, g := range goids {
				sink = table.Locations(g)
			}
		}
		return gmapRounds * len(goids)
	}), len(goids))
	m.put("gmap.bind_ns", probe(func() int {
		for r := 0; r < gmapRounds; r++ {
			t := gmap.NewTable(rootClass)
			for _, b := range bindings {
				if err := t.Bind(b.goid, b.loc.Site, b.loc.LOid); err != nil {
					probeErr = err
				}
			}
		}
		return gmapRounds * len(bindings)
	}), len(bindings))
	if probeErr != nil {
		return fmt.Errorf("gmap probe: %w", probeErr)
	}

	// wal: the same inserts through a durable engine (Fsync off, as the
	// mixed workload runs it), each batch in a fresh directory.
	var walBytes, walSyncs float64
	var perInsert []float64
	for batch := 0; batch < probeBatches; batch++ {
		reg := metrics.New()
		dir := filepath.Join(tmpDir, fmt.Sprintf("walprobe-%d", batch))
		eng, db, _, err := wal.Open(first.Schema(), wal.Options{Dir: dir, Site: string(fd.Sites[0]), Metrics: reg})
		if err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		t0 := time.Now()
		for _, o := range firstObjects {
			if err := db.Insert(o); err != nil {
				probeErr = err
			}
		}
		perInsert = append(perInsert, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(firstObjects)))
		snap := reg.Snapshot()
		walBytes, walSyncs = float64(snap.Sum("wal_bytes_total")), float64(snap.Sum("wal_syncs_total"))
		if err := eng.Close(); err != nil {
			probeErr = err
		}
		if err := os.RemoveAll(dir); err != nil {
			probeErr = err
		}
		if probeErr != nil {
			return fmt.Errorf("wal probe: %w", probeErr)
		}
	}
	m.put("wal.log_insert_us", median(perInsert), len(firstObjects))
	m.put("wal.bytes_per_insert", walBytes/float64(len(firstObjects)), len(firstObjects))
	m.put("wal.write_amp", walBytes/float64(userBytes), len(firstObjects))
	m.put("wal.syncs", walSyncs, len(firstObjects))

	// metrics: the by-name instrument look-up remote performs at every call
	// site, on a registry of its own.
	const lookups = 100000
	reg := metrics.New()
	labels := metrics.Labels{Site: "DB1", Alg: "BL"}
	m.put("metrics.counter_lookup_ns", probe(func() int {
		for i := 0; i < lookups; i++ {
			reg.Counter("requests_total", labels).Inc()
		}
		return lookups
	}), lookups)
	m.put("metrics.counter_lookup_allocs", allocsPer(lookups, func() {
		reg.Counter("requests_total", labels).Inc()
	}), lookups)
	return nil
}

// probeSnapshot times Registry.Snapshot on a registry a cluster has filled.
func probeSnapshot(reg *metrics.Registry, m metricSet) {
	const calls = 200
	m.put("metrics.snapshot_us", probe(func() int {
		for i := 0; i < calls; i++ {
			sink = reg.Snapshot()
		}
		return calls
	})/1e3, calls)
}

// probeEngine runs the in-process engine: on the real fabric for the
// no-transport latency floor of each strategy, and once per variant on the
// simulated fabric for the paper's two metrics in virtual time and the
// modeled bytes. It returns each strategy's modeled bytes per query.
func probeEngine(fd *fedData, m metricSet) (map[exec.Algorithm]float64, error) {
	eng, err := fd.engine()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	modeled := map[exec.Algorithm]float64{}
	for _, alg := range strategies {
		var floorUs []float64
		for rep := 0; rep < replayReps; rep++ {
			for _, b := range fd.Bounds {
				t0 := time.Now()
				if _, _, err := eng.RunContext(ctx, fabric.NewReal(fabric.DefaultRates()), alg, b); err != nil {
					return nil, err
				}
				floorUs = append(floorUs, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		m.putPct("exec."+stratKey(alg)+"_p50_us", floorUs, 50)

		var response, total, bytes float64
		for _, b := range fd.Bounds {
			_, sm, err := eng.RunContext(ctx, fabric.NewSim(fabric.DefaultRates(), eng.Sites()), alg, b)
			if err != nil {
				return nil, err
			}
			response += sm.ResponseMicros
			total += sm.TotalBusyMicros
			bytes += float64(sm.NetBytes)
		}
		n := float64(len(fd.Bounds))
		m.put("fabric.sim_"+stratKey(alg)+"_response_us", response/n, len(fd.Bounds))
		m.put("fabric.sim_"+stratKey(alg)+"_total_us", total/n, len(fd.Bounds))
		m.put("fabric."+stratKey(alg)+"_net_bytes", bytes/n, len(fd.Bounds))
		modeled[alg] = bytes / n
	}
	return modeled, nil
}
