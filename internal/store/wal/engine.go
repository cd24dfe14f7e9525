package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/trace"
)

const (
	walFile      = "wal.log"
	snapFile     = "snapshot.snap"
	snapTmpFile  = "snapshot.tmp"
	writerBufLen = 64 << 10
)

// DefaultSnapshotEvery is the append count between snapshots when Options
// leaves SnapshotEvery zero.
const DefaultSnapshotEvery = 4096

// Options configures a durable engine.
type Options struct {
	// Dir is the engine's directory; created if missing. One engine per
	// directory — there is no locking against concurrent opens.
	Dir string
	// Fsync syncs the log after every append (each acknowledged mutation
	// survives power loss). Off, appends are buffered and flushed on
	// Sync/snapshot/Close: a process crash loses at most the buffered
	// tail, which recovery truncates cleanly.
	Fsync bool
	// SnapshotEvery is the minimum number of appends between snapshots
	// (DefaultSnapshotEvery if zero, negative disables snapshots). A due
	// snapshot is further deferred until the log holds at least as many
	// appends as the last snapshot holds records, so total snapshot work
	// stays proportional to total appends however large the state grows.
	SnapshotEvery int
	// Site labels metrics, spans, and log lines.
	Site string
	// Metrics receives wal_*/snapshot_*/recovery_* series; nil is a
	// valid no-op.
	Metrics *metrics.Registry
	// Tracer records a recovery span on open; nil is a valid no-op.
	Tracer *trace.Tracer
	// Log receives recovery and snapshot INFO lines; nil discards.
	Log *slog.Logger
}

// Engine is the persistent storage engine: it implements
// store.StorageEngine over a WAL+snapshot directory and doubles as the
// coordinator's durable bind log (OpenLog).
type Engine struct {
	opts   Options
	labels metrics.Labels
	log    *slog.Logger

	// Hot-path counter handles, resolved once at open: appends must not
	// pay a registry lookup each.
	cAppends metrics.Counter
	cBytes   metrics.Counter
	cSyncs   metrics.Counter

	mu          sync.Mutex
	f           *os.File // wal.log, positioned at its end
	w           *bufio.Writer
	seq         uint64 // last assigned sequence number
	sinceSnap   int    // appends since the last snapshot
	snapRecords int64  // records in the last snapshot (defers the next one)
	buf         []byte // reusable payload-encoding scratch
	frame       []byte // reusable frame-encoding scratch (distinct from buf)
	snapBuf     []byte // snapshot payload scratch; buf holds the in-flight
	// append's payload while a due snapshot cuts, so snapshots need their own
	closed bool

	// Snapshot sources; either may be nil (a pure bind log has no
	// database). Set before serving; the engine reads them only inside
	// append calls, which callers already serialize against state reads.
	db     *store.Database
	tables *gmap.Tables
}

// Open opens (creating if needed) a durable component database: it
// recovers the directory's snapshot+log into a fresh database over the
// schema and a fresh mapping-table replica, attaches the engine to the
// database, and returns all three. The returned database logs every
// subsequent Insert/CreateIndex through the engine; mapping-table binds
// must go through the engine's LogBind (the TCP server does).
func Open(s *schema.Schema, opts Options) (*Engine, *store.Database, *gmap.Tables, error) {
	db, err := store.NewDatabase(s)
	if err != nil {
		return nil, nil, nil, err
	}
	tables := gmap.NewTables()
	e, err := open(opts, db, tables)
	if err != nil {
		return nil, nil, nil, err
	}
	db.WithEngine(e)
	return e, db, tables, nil
}

// OpenLog opens a pure durable bind log with no object state — the
// coordinator's delta log. Bind records recover into the returned Tables;
// insert/index records in the directory (there are none in coordinator
// use) are ignored.
func OpenLog(opts Options) (*Engine, *gmap.Tables, error) {
	tables := gmap.NewTables()
	e, err := open(opts, nil, tables)
	if err != nil {
		return nil, nil, err
	}
	return e, tables, nil
}

func open(opts Options, db *store.Database, tables *gmap.Tables) (*Engine, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A leftover half-written snapshot from a crash is garbage.
	if err := os.Remove(filepath.Join(opts.Dir, snapTmpFile)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	e := &Engine{
		opts:   opts,
		labels: metrics.Labels{Site: opts.Site},
		log:    opts.Log,
		db:     db,
		tables: tables,
	}
	if e.log == nil {
		e.log = slog.New(slog.DiscardHandler)
	}
	e.cAppends = opts.Metrics.Counter("wal_appends_total", e.labels)
	e.cBytes = opts.Metrics.Counter("wal_bytes_total", e.labels)
	e.cSyncs = opts.Metrics.Counter("wal_syncs_total", e.labels)
	if err := e.recover(); err != nil {
		return nil, err
	}
	return e, nil
}

// recover loads snapshot.snap, replays wal.log past it, truncates any torn
// tail, and leaves e.f positioned for appends.
func (e *Engine) recover() error {
	start := time.Now()
	span := e.opts.Tracer.StartSpan(0, object.SiteID(e.opts.Site), "wal:recover")
	defer span.End()

	var replayed, skipped int64
	apply := func(rec record) error {
		applied, err := e.apply(rec)
		if err != nil {
			return err
		}
		if applied {
			replayed++
		} else {
			skipped++
		}
		return nil
	}

	// Snapshot first: its header sets baseSeq, its records rebuild the
	// compacted state. A snapshot is written in one atomic rename, so any
	// torn frame here is real corruption, not a crash artifact.
	var baseSeq uint64 // sequence covered by snapshot.snap (0 = none)
	snapPath := filepath.Join(e.opts.Dir, snapFile)
	if sf, err := os.Open(snapPath); err == nil {
		st, err := sf.Stat()
		if err != nil {
			sf.Close()
			return fmt.Errorf("wal: %w", err)
		}
		first := true
		res, err := scanFrames(bufio.NewReader(sf), st.Size(), func(rec record) error {
			e.snapRecords++
			if first {
				first = false
				if rec.kind != recHeader {
					return fmt.Errorf("wal: snapshot %s does not start with a header record", snapPath)
				}
				baseSeq = rec.base
				return nil
			}
			return apply(rec)
		})
		sf.Close()
		if err != nil {
			return err
		}
		if res.torn {
			return fmt.Errorf("wal: snapshot %s is corrupt (%d trailing bytes unreadable)", snapPath, res.tornBytes)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("wal: %w", err)
	}
	e.seq = baseSeq

	// Then the log: replay frames past the snapshot, truncate a torn tail.
	f, err := os.OpenFile(filepath.Join(e.opts.Dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	res, err := scanFrames(bufio.NewReader(f), st.Size(), func(rec record) error {
		if rec.seq <= baseSeq {
			// Crash window between snapshot rename and log truncation:
			// the snapshot already covers this frame.
			skipped++
			return nil
		}
		if rec.seq > e.seq {
			e.seq = rec.seq
		}
		return apply(rec)
	})
	if err != nil {
		f.Close()
		return err
	}
	if res.torn {
		if err := f.Truncate(res.good); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		e.opts.Metrics.Counter("recovery_truncated_total", e.labels).Add(1)
		e.opts.Metrics.Counter("recovery_truncated_bytes_total", e.labels).Add(res.tornBytes)
		e.log.Warn("wal: truncated torn tail record", "site", e.opts.Site, "bytes", res.tornBytes, "offset", res.good)
	}
	if _, err := f.Seek(res.good, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	e.f = f
	e.w = bufio.NewWriterSize(f, writerBufLen)

	micros := time.Since(start).Microseconds()
	e.opts.Metrics.Counter("recovery_replayed_total", e.labels).Add(replayed)
	e.opts.Metrics.Counter("recovery_skipped_total", e.labels).Add(skipped)
	e.opts.Metrics.Gauge("recovery_last_micros", e.labels).Set(micros)
	span.Add("replayed", replayed).Add("skipped", skipped).Detailf("dir=%s baseSeq=%d seq=%d", e.opts.Dir, baseSeq, e.seq)
	e.log.Info("wal: recovered", "site", e.opts.Site, "dir", e.opts.Dir,
		"replayed", replayed, "skipped", skipped, "base_seq", baseSeq, "seq", e.seq, "micros", micros)
	return nil
}

// apply replays one record into the recovering state. The database has no
// engine attached yet, so nothing is re-logged. Exact-duplicate inserts
// and binds are skipped (false, nil): write-ahead discipline means a crash
// can leave a logged-but-unapplied record that an earlier snapshot or a
// re-delivered binding later duplicates. Any other error is real corruption or
// schema drift and aborts recovery.
func (e *Engine) apply(rec record) (bool, error) {
	switch rec.kind {
	case recInsert:
		if e.db == nil {
			return false, nil
		}
		if ext := e.db.Extent(rec.obj.Class); ext != nil && ext.Get(rec.obj.LOid) != nil {
			return false, nil
		}
		if err := e.db.Insert(rec.obj); err != nil {
			return false, fmt.Errorf("wal: replay seq %d: %w", rec.seq, err)
		}
	case recIndex:
		if e.db == nil {
			return false, nil
		}
		if _, err := e.db.CreateIndex(rec.class, rec.attr); err != nil {
			return false, fmt.Errorf("wal: replay seq %d: %w", rec.seq, err)
		}
	case recBind:
		if e.tables == nil {
			return false, nil
		}
		t := e.tables.Table(rec.class)
		if t.Bound(rec.goid, rec.site, rec.loid) {
			return false, nil
		}
		if err := t.Bind(rec.goid, rec.site, rec.loid); err != nil {
			return false, fmt.Errorf("wal: replay seq %d: %w", rec.seq, err)
		}
	case recHeader:
		return false, fmt.Errorf("wal: replay seq %d: header record outside snapshot", rec.seq)
	}
	return true, nil
}

// LogInsert implements store.StorageEngine.
func (e *Engine) LogInsert(o *object.Object) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	payload, err := object.AppendObject(e.buf[:0], o)
	if err != nil {
		return err
	}
	e.buf = payload[:0]
	return e.appendLocked(recInsert, payload)
}

// LogCreateIndex implements store.StorageEngine.
func (e *Engine) LogCreateIndex(class, attr string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	payload := encodeIndex(e.buf[:0], class, attr)
	e.buf = payload[:0]
	return e.appendLocked(recIndex, payload)
}

// LogBind implements store.StorageEngine, and remote.DeltaLog for the
// coordinator's pure bind log.
func (e *Engine) LogBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	payload := encodeBind(e.buf[:0], class, goid, site, loid)
	e.buf = payload[:0]
	return e.appendLocked(recBind, payload)
}

// appendLocked writes one frame under write-ahead discipline. The caller
// applies the mutation in memory only after it returns, so at entry the
// in-memory state covers exactly sequences 1..e.seq — which is why a due
// snapshot is cut BEFORE assigning this record's sequence: the snapshot's
// baseSeq then never covers an unapplied record.
func (e *Engine) appendLocked(kind byte, payload []byte) error {
	if e.closed {
		return fmt.Errorf("wal: engine is closed")
	}
	// A due snapshot also waits until the log has grown to the size of the
	// last snapshot: cutting one re-encodes the whole state, so a fixed
	// cadence would cost O(state²) over the life of a growing store, while
	// this geometric deferral keeps total snapshot work proportional to
	// total appends (and recovery replay bounded by ~2x the state size).
	if e.opts.SnapshotEvery > 0 && e.sinceSnap >= e.opts.SnapshotEvery &&
		int64(e.sinceSnap) >= e.snapRecords && (e.db != nil || e.tables != nil) {
		if err := e.snapshotLocked(); err != nil {
			return err
		}
	}
	e.seq++
	frame := appendFrame(e.frame[:0], e.seq, kind, payload)
	_, err := e.w.Write(frame)
	e.frame = frame[:0]
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if e.opts.Fsync {
		if err := e.syncLocked(); err != nil {
			return err
		}
	}
	e.sinceSnap++
	e.cAppends.Add(1)
	e.cBytes.Add(int64(len(frame)))
	return nil
}

func (e *Engine) syncLocked() error {
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := e.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	e.cSyncs.Add(1)
	return nil
}

// Sync implements store.StorageEngine: flush buffered frames and fsync.
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("wal: engine is closed")
	}
	return e.syncLocked()
}

// Close flushes, syncs, and releases the log file. Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.w.Flush()
	if serr := e.f.Sync(); err == nil {
		err = serr
	}
	if cerr := e.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Seq returns the last assigned log sequence number.
func (e *Engine) Seq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Health reports the engine's state for an /healthz source (wire through
// obs.PrefixHealth("wal", ...)): "ok(seq=N)" while the log is open,
// "closed" tagged unhealthy as "stopped" once Close ran. Nil-safe so a
// site without durability can pass its engine through unconditionally.
func (e *Engine) Health() map[string]string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return map[string]string{"engine": "stopped"}
	}
	return map[string]string{"engine": fmt.Sprintf("ok(seq=%d)", e.seq)}
}

// snapshotLocked writes the current state as a compacted log to
// snapshot.tmp, atomically renames it over snapshot.snap, syncs the
// directory, and truncates wal.log. State records carry sequence 0 — the
// header's baseSeq, not per-record sequences, scopes a snapshot.
func (e *Engine) snapshotLocked() error {
	start := time.Now()
	path := filepath.Join(e.opts.Dir, snapTmpFile)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, writerBufLen)
	var records, bytes int64
	emit := func(kind byte, payload []byte) error {
		frame := appendFrame(e.frame[:0], 0, kind, payload)
		e.frame = frame[:0]
		n, err := w.Write(frame)
		records++
		bytes += int64(n)
		return err
	}

	err = func() error {
		hdr := binary.AppendUvarint(make([]byte, 0, 10), e.seq)
		if err := emit(recHeader, hdr); err != nil {
			return err
		}
		if e.db != nil {
			for _, class := range e.db.Schema().ClassNames() {
				ext := e.db.Extent(class)
				for _, attr := range ext.IndexAttrs() {
					if err := emit(recIndex, encodeIndex(e.snapBuf[:0], class, attr)); err != nil {
						return err
					}
				}
				var scanErr error
				ext.Scan(func(o *object.Object) bool {
					payload, err := object.AppendObject(e.snapBuf[:0], o)
					if err == nil {
						e.snapBuf = payload[:0]
						err = emit(recInsert, payload)
					}
					scanErr = err
					return err == nil
				})
				if scanErr != nil {
					return scanErr
				}
			}
		}
		if e.tables != nil {
			for _, class := range e.tables.Classes() {
				t := e.tables.Table(class)
				for _, goid := range t.GOids() {
					for _, loc := range t.Locations(goid) {
						if err := emit(recBind, encodeBind(e.snapBuf[:0], class, goid, loc.Site, loc.LOid)); err != nil {
							return err
						}
					}
				}
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(path, filepath.Join(e.opts.Dir, snapFile)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(e.opts.Dir); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}

	// The snapshot now owns sequences 1..e.seq; restart the log. A crash
	// before the truncate lands is covered by the seq<=baseSeq replay
	// filter.
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := e.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := e.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := e.f.Sync(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	e.w.Reset(e.f)
	e.sinceSnap = 0
	e.snapRecords = records

	micros := time.Since(start).Microseconds()
	e.opts.Metrics.Counter("snapshots_total", e.labels).Add(1)
	e.opts.Metrics.Counter("snapshot_records_total", e.labels).Add(records)
	e.opts.Metrics.Counter("snapshot_bytes_total", e.labels).Add(bytes)
	e.opts.Metrics.Gauge("snapshot_last_micros", e.labels).Set(micros)
	e.log.Info("wal: snapshot", "site", e.opts.Site, "records", records, "bytes", bytes,
		"base_seq", e.seq, "micros", micros)
	return nil
}

// Import merges an in-memory fixture into the durable store: every
// secondary index, object, and mapping-table binding of src/mapping not
// already present is logged through the engine and applied to the
// recovered database and tables, then synced. Idempotent — on first boot
// over an empty directory it seeds everything; on later boots the
// recovered state wins and only new fixture entries land. A fixture
// object whose LOid is already stored is skipped without comparison
// (the durable copy is authoritative).
func (e *Engine) Import(src *store.Database, mapping *gmap.Tables) error {
	if e.db != nil && src != nil {
		for _, class := range src.Schema().ClassNames() {
			ext, dst := src.Extent(class), e.db.Extent(class)
			if dst == nil {
				return fmt.Errorf("wal: import: recovered schema has no class %q", class)
			}
			for _, attr := range ext.IndexAttrs() {
				if dst.Index(attr) == nil {
					if _, err := e.db.CreateIndex(class, attr); err != nil {
						return err
					}
				}
			}
			for _, o := range ext.All() {
				if dst.Get(o.LOid) == nil {
					if err := e.db.Insert(o); err != nil {
						return err
					}
				}
			}
		}
	}
	if e.tables != nil && mapping != nil {
		for _, class := range mapping.Classes() {
			src, dst := mapping.Table(class), e.tables.Table(class)
			for _, goid := range src.GOids() {
				for _, loc := range src.Locations(goid) {
					if dst.Bound(goid, loc.Site, loc.LOid) {
						continue
					}
					if err := e.LogBind(class, goid, loc.Site, loc.LOid); err != nil {
						return err
					}
					if err := dst.Bind(goid, loc.Site, loc.LOid); err != nil {
						return err
					}
				}
			}
		}
	}
	return e.Sync()
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
