package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/store/wal"
)

// DurabilitySpec shapes a durability run: a school-style insert workload
// driven through each storage engine, followed by a cold-start recovery of
// the durable engines' directories.
type DurabilitySpec struct {
	// Objects is the number of objects inserted per cell.
	Objects int `json:"objects"`
	// Seed roots the generated objects, so every engine inserts the
	// identical sequence.
	Seed int64 `json:"seed"`
	// Rounds is how many times each engine's insert phase runs; the report
	// keeps each engine's best round. Wall clocks this small (hundreds of
	// milliseconds) are dominated by transient machine load in a single
	// shot, so the gate compares minima, not one-shot samples.
	Rounds int `json:"rounds,omitempty"`
	// MaxOverhead, when positive, gates the buffered WAL engine's
	// steady-state write overhead: Run fails if wal's insert wall-clock
	// exceeds MaxOverhead × mem's. The fsync engine is reported but not
	// gated — its cost is the disk's flush latency, not this code's.
	MaxOverhead float64 `json:"max_overhead,omitempty"`
}

// DurabilityCell is one engine's measured run: the steady-state insert side
// and, for the durable engines, the cold-start recovery side.
type DurabilityCell struct {
	// Engine is "mem" (the baseline: no engine, in memory only), "wal"
	// (buffered write-ahead log) or "wal-fsync" (fsync per append).
	Engine string `json:"engine"`
	// Objects is the number of objects inserted (identical across cells).
	Objects int `json:"objects"`

	InsertWallMillis float64 `json:"insert_wall_ms"`
	InsertsPerSec    float64 `json:"inserts_per_sec"`
	MeanInsertMicros float64 `json:"mean_insert_us"`
	// WriteOverhead is this cell's insert wall-clock over the mem cell's —
	// the price of durability on the write path (1.0 for mem itself).
	WriteOverhead float64 `json:"write_overhead"`

	WALAppends int64 `json:"wal_appends,omitempty"`
	WALBytes   int64 `json:"wal_bytes,omitempty"`
	WALSyncs   int64 `json:"wal_syncs,omitempty"`
	Snapshots  int64 `json:"snapshots,omitempty"`

	// RecoverWallMillis is the cold-start time: a fresh engine opening the
	// cell's directory and rebuilding the full database state.
	RecoverWallMillis float64 `json:"recover_wall_ms,omitempty"`
	RecoveredObjects  int64   `json:"recovered_objects,omitempty"`
	ReplayedRecords   int64   `json:"replayed_records,omitempty"`
	SkippedRecords    int64   `json:"skipped_records,omitempty"`
}

// durabilityObjects draws the insert sequence: school-shaped students with
// seeded attribute values, identical for every engine under the same seed.
func durabilityObjects(spec DurabilitySpec) []*object.Object {
	rng := rand.New(rand.NewSource(spec.Seed))
	names := []string{"John", "Tony", "Mary", "Hedy", "Fanny", "Kelly", "Haley"}
	objs := make([]*object.Object, spec.Objects)
	for i := range objs {
		attrs := map[string]object.Value{
			"s-no": object.Int(int64(100000 + i)),
			"name": object.Str(names[rng.Intn(len(names))]),
			"age":  object.Int(int64(20 + rng.Intn(40))),
		}
		if rng.Intn(4) == 0 { // some nulls, like the paper's extents
			delete(attrs, "age")
		}
		objs[i] = object.New(object.LOid(fmt.Sprintf("s%06d", i)), "Student", attrs)
	}
	return objs
}

// RunDurability measures the storage engines against each other: identical
// school-style insert streams through mem, wal and wal-fsync, then a timed
// cold-start recovery of each durable directory. Each engine's insert and
// recovery run spec.Rounds times with the rounds interleaved across engines
// (so a transient load spike lands on every engine, not one engine's only
// sample) and the report keeps each engine's best round. It verifies its
// own invariants — every durable cell must recover exactly the inserted
// state, and the buffered WAL's write overhead must stay within
// MaxOverhead — and fails loudly when one breaks, so the run doubles as a
// regression gate. progress, when non-nil, receives one line per cell.
func RunDurability(spec DurabilitySpec, dir string, progress func(string)) (*Report, error) {
	report := newReport("durability", spec.Seed, spec)
	objs := durabilityObjects(spec)
	schema := school.Schemas()["DB1"]
	labels := metrics.Labels{Site: "DB1"}

	insert := func(db *store.Database) (time.Duration, error) {
		if _, err := db.CreateIndex("Student", "age"); err != nil {
			return 0, err
		}
		runtime.GC() // don't bill one cell for another cell's garbage
		start := time.Now()
		for _, o := range objs {
			if err := db.Insert(o); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	engines := []string{"mem", "wal", "wal-fsync"}
	cells := make(map[string]*DurabilityCell, len(engines))
	bestInsert := make(map[string]time.Duration, len(engines))
	bestRecover := make(map[string]time.Duration, len(engines))
	for _, engine := range engines {
		cells[engine] = &DurabilityCell{Engine: engine, Objects: spec.Objects}
	}

	for round := 0; round < spec.Rounds; round++ {
		for _, engine := range engines {
			cell := cells[engine]
			switch engine {
			case "mem":
				db := store.MustNewDatabase(schema)
				wall, err := insert(db)
				if err != nil {
					return nil, fmt.Errorf("bench: %s insert: %w", engine, err)
				}
				if round == 0 || wall < bestInsert[engine] {
					bestInsert[engine] = wall
				}
			case "wal", "wal-fsync":
				cellDir := filepath.Join(dir, engine, fmt.Sprintf("r%d", round))
				reg := metrics.New()
				opts := wal.Options{
					Dir:     cellDir,
					Fsync:   engine == "wal-fsync",
					Site:    "DB1",
					Metrics: reg,
				}
				eng, db, _, err := wal.Open(schema, opts)
				if err != nil {
					return nil, fmt.Errorf("bench: %s open: %w", engine, err)
				}
				wall, err := insert(db)
				if err != nil {
					eng.Close()
					return nil, fmt.Errorf("bench: %s insert: %w", engine, err)
				}
				if err := eng.Close(); err != nil {
					return nil, fmt.Errorf("bench: %s close: %w", engine, err)
				}
				if round == 0 || wall < bestInsert[engine] {
					bestInsert[engine] = wall
					snap := reg.Snapshot()
					cell.WALAppends = snap.CounterValue("wal_appends_total", labels)
					cell.WALBytes = snap.CounterValue("wal_bytes_total", labels)
					cell.WALSyncs = snap.CounterValue("wal_syncs_total", labels)
					cell.Snapshots = snap.CounterValue("snapshots_total", labels)
				}

				// Cold start: a fresh engine rebuilds the database from disk.
				rreg := metrics.New()
				opts.Metrics = rreg
				runtime.GC()
				start := time.Now()
				reng, rdb, _, err := wal.Open(schema, opts)
				if err != nil {
					return nil, fmt.Errorf("bench: %s recover: %w", engine, err)
				}
				recoverWall := time.Since(start)
				recovered := int64(rdb.Extent("Student").Len())
				reng.Close()
				if round == 0 || recoverWall < bestRecover[engine] {
					bestRecover[engine] = recoverWall
					rsnap := rreg.Snapshot()
					cell.RecoverWallMillis = millis(recoverWall)
					cell.RecoveredObjects = recovered
					cell.ReplayedRecords = rsnap.CounterValue("recovery_replayed_total", labels)
					cell.SkippedRecords = rsnap.CounterValue("recovery_skipped_total", labels)
				}

				// Invariant: recovery is complete — the durable engine holds
				// every acked insert.
				if recovered != int64(spec.Objects) {
					return nil, fmt.Errorf("bench: %s recovered %d objects, inserted %d",
						engine, recovered, spec.Objects)
				}
			}
		}
	}

	memWall := bestInsert["mem"]
	out := make([]DurabilityCell, 0, len(engines))
	for _, engine := range engines {
		cell := cells[engine]
		cell.InsertWallMillis = millis(bestInsert[engine])
		cell.WriteOverhead = overhead(bestInsert[engine], memWall)
		cell.InsertsPerSec = persec(spec.Objects, cell.InsertWallMillis)
		cell.MeanInsertMicros = round2(cell.InsertWallMillis * 1e3 / float64(spec.Objects))
		out = append(out, *cell)
		if progress != nil {
			progress(fmt.Sprintf("%-10s insert %9.2f ms (%8.0f/s, %.1fx mem)  recover %8.2f ms (%d objects)",
				cell.Engine, cell.InsertWallMillis, cell.InsertsPerSec,
				cell.WriteOverhead, cell.RecoverWallMillis, cell.RecoveredObjects))
		}
	}

	report.Cells = out

	// Invariant: durability must not make the write path pathologically
	// slow. Only the buffered engine is gated — the fsync engine's cost is
	// the device's flush latency.
	if spec.MaxOverhead > 0 {
		for _, cell := range out {
			if cell.Engine == "wal" && cell.WriteOverhead > spec.MaxOverhead {
				return report, fmt.Errorf("bench: wal write overhead %.2fx exceeds the %.2fx gate",
					cell.WriteOverhead, spec.MaxOverhead)
			}
		}
	}
	return report, nil
}

func millis(d time.Duration) float64 { return round2(float64(d.Nanoseconds()) / 1e6) }

func overhead(d, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return round2(float64(d) / float64(base))
}

func persec(n int, wallMillis float64) float64 {
	if wallMillis <= 0 {
		return 0
	}
	return round2(float64(n) / wallMillis * 1e3)
}

// round2 keeps report floats to 2 decimals so the JSON stays readable.
func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}
