package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/workload"
)

// countingDB counts the probes that reach the store.
type countingDB struct {
	*store.Database
	probes int
}

func (cd *countingDB) Locate(id object.LOid) (*object.Object, int, bool) {
	cd.probes++
	return cd.Database.Locate(id)
}

func TestCachedWarm(t *testing.T) {
	fx, _ := q1Bound(t)
	db1 := fx.Databases["DB1"]
	src := NewCached(DiskSource{DB: db1})
	t1, pos, _ := db1.Locate("t1")
	src.Warm(pos)
	var c cost.Counter
	if o, ok := src.Fetch("t1", &c); !ok || o != t1 {
		t.Fatal("Fetch failed")
	}
	if c.DiskBytes() != 0 || c.CPUOps() != 1 {
		t.Errorf("warmed object charged %d bytes, %d ops; want a buffer hit: 0 and 1", c.DiskBytes(), c.CPUOps())
	}
	if _, ok := src.Fetch("ghost", &c); ok {
		t.Error("Fetch of missing object succeeded")
	}
}

// TestCachedChargesPerTouch: the first fetch of an object pays its disk read,
// a repeat is one CPU operation answered from the buffer, and a fetch that
// fails charges nothing and buffers nothing. Every fetch is exactly one probe
// of the store; warming a scanned object is none.
func TestCachedChargesPerTouch(t *testing.T) {
	fx, _ := q1Bound(t)
	db1 := &countingDB{Database: fx.Databases["DB1"]}
	src := NewCached(DiskSource{DB: db1})
	d1, _ := db1.Deref("d1")
	wantProbes := func(step string, n int) {
		t.Helper()
		if db1.probes != n {
			t.Errorf("%s: %d store probes, want %d", step, db1.probes, n)
		}
	}

	var first, repeat, failed cost.Counter
	if o, ok := src.Fetch("d1", &first); !ok || o != d1 {
		t.Fatal("first Fetch failed")
	}
	if first.DiskBytes() != int64(d1.WireSize(nil)) || first.CPUOps() != 0 {
		t.Errorf("first fetch charged %d bytes, %d ops; want the object's %d bytes and no CPU",
			first.DiskBytes(), first.CPUOps(), d1.WireSize(nil))
	}
	wantProbes("first fetch", 1)
	if o, ok := src.Fetch("d1", &repeat); !ok || o != d1 {
		t.Fatal("repeated Fetch failed")
	}
	if repeat.DiskBytes() != 0 || repeat.CPUOps() != 1 {
		t.Errorf("repeated fetch charged %d bytes, %d ops; want 0 and 1", repeat.DiskBytes(), repeat.CPUOps())
	}
	wantProbes("repeated fetch", 2)
	for i := 1; i <= 2; i++ {
		if _, ok := src.Fetch("ghost", &failed); ok {
			t.Fatal("Fetch of missing object succeeded")
		}
		wantProbes(fmt.Sprintf("failed fetch %d", i), 2+i)
	}
	if failed.DiskBytes() != 0 || failed.CPUOps() != 0 {
		t.Errorf("failed fetches charged %d bytes, %d ops", failed.DiskBytes(), failed.CPUOps())
	}

	var scanned []object.LOid
	db1.Extent("Teacher").ScanPos(func(o *object.Object, pos int) bool {
		src.Warm(pos)
		scanned = append(scanned, o.LOid)
		return true
	})
	wantProbes("warming a scanned extent", 4)
	var hits cost.Counter
	for _, id := range scanned {
		src.Fetch(id, &hits)
	}
	if hits.DiskBytes() != 0 || hits.CPUOps() != int64(len(scanned)) {
		t.Errorf("%d warmed objects charged %d bytes, %d ops; want buffer hits", len(scanned), hits.DiskBytes(), hits.CPUOps())
	}
	wantProbes("fetching the warmed objects", 4+len(scanned))
}

// mapPool is the buffer pool as it was before the store handed out
// positions: a second map of LOids beside the store's. Cached must charge and
// answer exactly as it does.
type mapPool struct {
	src  Source
	seen map[object.LOid]*object.Object
}

func (m *mapPool) Warm(o *object.Object) { m.seen[o.LOid] = o }

func (m *mapPool) Fetch(id object.LOid, sink cost.Sink) (*object.Object, bool) {
	if o, ok := m.seen[id]; ok {
		sink.CPU(1)
		return o, true
	}
	o, ok := m.src.Fetch(id, sink)
	if ok {
		m.seen[id] = o
	}
	return o, ok
}

// table2Store is DB1 of a federation shaped like the benchmark's table2
// workload, n objects per class per site.
func table2Store(t testing.TB, n int, seed int64) *store.Database {
	t.Helper()
	class := func(nPreds int, held [][]int) workload.ClassParams {
		return workload.ClassParams{NPreds: nPreds, NObjects: []int{n, n, n},
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
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return w.Databases["DB1"]
}

// TestCachedMatchesMapPool drives the bitset pool and the map pool it
// replaced through the same seeded sequences — warming scanned objects,
// fetching present, repeated and missing LOids, and inserting objects while a
// pair of pools is in use and between two pairs — and requires the same
// answer and the same charge at every step.
func TestCachedMatchesMapPool(t *testing.T) {
	stores := map[string]func(seed int64) *store.Database{
		"school/DB1": func(int64) *store.Database { return school.New().Databases["DB1"] },
		"school/DB3": func(int64) *store.Database { return school.New().Databases["DB3"] },
		"table2":     func(seed int64) *store.Database { return table2Store(t, 120, seed) },
	}
	for name, fresh := range stores {
		for seed := int64(1); seed <= 5; seed++ {
			db := fresh(seed)
			rng := rand.New(rand.NewSource(seed))
			type scanned struct {
				obj *object.Object
				pos int
			}
			var objects []scanned
			for _, class := range db.Schema().ClassNames() {
				db.Extent(class).ScanPos(func(o *object.Object, pos int) bool {
					objects = append(objects, scanned{o, pos})
					return true
				})
			}
			inserted := 0
			for pair := 0; pair < 2; pair++ {
				ref := &mapPool{src: DiskSource{DB: db}, seen: map[object.LOid]*object.Object{}}
				pool := NewCached(DiskSource{DB: db})
				for step := 0; step < 800; step++ {
					var id object.LOid
					switch r := rng.Intn(20); {
					case r < 4:
						s := objects[rng.Intn(len(objects))]
						ref.Warm(s.obj)
						pool.Warm(s.pos)
						continue
					case r < 6:
						id = object.LOid(fmt.Sprintf("ghost%d", rng.Intn(8)))
					case r < 7 && step > 200:
						// Enough inserts to run past the bitset the pool sized at
						// its first touch.
						for i := 0; i < 70; i++ {
							o := object.New(object.LOid(fmt.Sprintf("new%d", inserted)), objects[0].obj.Class, nil)
							inserted++
							db.MustInsert(o)
							_, pos, _ := db.Locate(o.LOid)
							objects = append(objects, scanned{o, pos})
						}
						continue
					case r < 12:
						// A small window, so repeats are common.
						id = objects[rng.Intn(min(len(objects), 16))].obj.LOid
					default:
						id = objects[rng.Intn(len(objects))].obj.LOid
					}
					var want, got cost.Counter
					wo, wok := ref.Fetch(id, &want)
					o, ok := pool.Fetch(id, &got)
					if o != wo || ok != wok || got != want {
						t.Fatalf("%s seed %d pair %d step %d: Fetch(%s) = %v, %v, %d bytes, %d ops; the map pool's %v, %v, %d bytes, %d ops",
							name, seed, pair, step, id, o, ok, got.DiskBytes(), got.CPUOps(), wo, wok, want.DiskBytes(), want.CPUOps())
					}
				}
			}
			if inserted == 0 {
				t.Fatalf("%s seed %d: the sequence inserted nothing", name, seed)
			}
		}
	}
}

// TestCachedAllocatesOncePerQuery: a pool's buffer is one allocation, made at
// its first touch, whatever the number of touches.
func TestCachedAllocatesOncePerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	for name, db := range map[string]*store.Database{
		"school/DB1": school.New().Databases["DB1"],
		"table2":     table2Store(t, 300, 1),
	} {
		var ids []object.LOid
		for _, class := range db.Schema().ClassNames() {
			db.Extent(class).ScanPos(func(o *object.Object, _ int) bool {
				ids = append(ids, o.LOid)
				return true
			})
		}
		ids = append(ids, "ghost")
		for _, touches := range []int{1, 3 * len(ids)} {
			allocs := testing.AllocsPerRun(20, func() {
				pool := NewCached(DiskSource{DB: db})
				for i := 0; i < touches; i++ {
					pool.Fetch(ids[i%len(ids)], cost.Discard)
				}
			})
			if allocs != 1 {
				t.Errorf("%s: a pool touched %d times over %d objects allocated %.0f times, want once: its bitset",
					name, touches, db.Len(), allocs)
			}
		}
	}
}
