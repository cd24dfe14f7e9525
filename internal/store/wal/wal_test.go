package wal

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
)

// dump renders the full recoverable state — extents in scan order,
// secondary indexes, GOid mapping tables — as one canonical string, the
// byte-identical comparison basis for recovery tests.
func dump(db *store.Database, tables *gmap.Tables) string {
	var b strings.Builder
	if db != nil {
		for _, class := range db.Schema().ClassNames() {
			ext := db.Extent(class)
			fmt.Fprintf(&b, "extent %s (%d objects)\n", class, ext.Len())
			for _, attr := range ext.IndexAttrs() {
				ix := ext.Index(attr)
				fmt.Fprintf(&b, "  index %s: %d entries, %d nulls\n", attr, ix.Len(), len(ix.Nulls()))
			}
			ext.Scan(func(o *object.Object) bool {
				fmt.Fprintf(&b, "  %s\n", o)
				return true
			})
		}
	}
	if tables != nil {
		for _, class := range tables.Classes() {
			t := tables.Table(class)
			fmt.Fprintf(&b, "gmap %s\n", class)
			for _, goid := range t.GOids() {
				for _, loc := range t.Locations(goid) {
					fmt.Fprintf(&b, "  %s -> %s@%s\n", goid, loc.LOid, loc.Site)
				}
			}
		}
	}
	return b.String()
}

// seedSome opens an engine over the DB1 school schema, creates an index,
// inserts n students, and binds each to a GOid. Returns the engine and the
// live state.
func seedSome(t *testing.T, dir string, n int, opts Options) (*Engine, *store.Database, *gmap.Tables) {
	t.Helper()
	opts.Dir = dir
	if opts.Site == "" {
		opts.Site = "DB1"
	}
	eng, db, tables, err := Open(school.Schemas()["DB1"], opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if db.Len() == 0 {
		if _, err := db.CreateIndex("Student", "age"); err != nil {
			t.Fatalf("CreateIndex: %v", err)
		}
	}
	start := db.Extent("Student").Len()
	for i := start; i < start+n; i++ {
		o := object.New(object.LOid(fmt.Sprintf("s%04d", i)), "Student", map[string]object.Value{
			"s-no": object.Int(int64(i)),
			"name": object.Str(fmt.Sprintf("student-%d", i)),
			"age":  object.Int(int64(18 + i%30)),
			"sex":  object.Str([]string{"F", "M"}[i%2]),
		})
		if err := db.Insert(o); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		goid := object.GOid(fmt.Sprintf("gs%04d", i))
		if err := eng.LogBind("Student", goid, "DB1", o.LOid); err != nil {
			t.Fatalf("LogBind %d: %v", i, err)
		}
		if err := tables.Table("Student").Bind(goid, "DB1", o.LOid); err != nil {
			t.Fatalf("Bind %d: %v", i, err)
		}
	}
	return eng, db, tables
}

func reopen(t *testing.T, dir string, opts Options) (*Engine, *store.Database, *gmap.Tables) {
	t.Helper()
	opts.Dir = dir
	if opts.Site == "" {
		opts.Site = "DB1"
	}
	eng, db, tables, err := Open(school.Schemas()["DB1"], opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return eng, db, tables
}

// goldenInsertFrame is the log frame (seq 7) of the object below, written by
// the encoder as it stood before the object record moved into package
// object and objects became sorted slices. Logs on disk outlive the code
// that wrote them: these bytes may never change.
const goldenInsertFrame = "" +
	"550100004dcba3870700000000000000010753747564656e740373312708066163746976650905010000000000000007" +
	"61647669736f72030674310361676509021f000000000000000362696fc9010478787878787878787878787878787878" +
	"787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878" +
	"787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878" +
	"787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878" +
	"7878787878787878787878787878787878787878787878787878787878787878787878787878787807636f7572736573" +
	"17080300000000000000066331030000000000000006633206676c6f62616c0407677431036770610903000000000000" +
	"0c40046e616d6505044a6f686e"

func TestInsertFrameGoldenBytes(t *testing.T) {
	o := object.New("s1'", "Student", map[string]object.Value{
		"name":    object.Str("John"),
		"age":     object.Int(31),
		"gpa":     object.Float(3.5),
		"active":  object.Bool(true),
		"advisor": object.Ref("t1"),
		"global":  object.GRef("gt1"),
		"courses": object.List(object.Ref("c1"), object.Ref("c2")),
		"bio":     object.Str(strings.Repeat("x", 200)),
	})
	payload, err := object.AppendObject(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(appendFrame(nil, 7, recInsert, payload)); got != goldenInsertFrame {
		t.Errorf("insert frame changed on disk:\n got %s\nwant %s", got, goldenInsertFrame)
	}
	// And a frame written back then still reads back as the same object.
	frame, err := hex.DecodeString(goldenInsertFrame)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(7, frame[frameHeaderSize+8], frame[frameHeaderSize+9:])
	if err != nil {
		t.Fatalf("decode golden frame: %v", err)
	}
	if rec.obj.String() != o.String() || rec.class != "Student" {
		t.Errorf("golden frame decodes to %v, want %v", rec.obj, o)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng, db, tables := seedSome(t, dir, 25, Options{})
	want := dump(db, tables)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	eng2, db2, tables2 := reopen(t, dir, Options{})
	defer eng2.Close()
	if got := dump(db2, tables2); got != want {
		t.Fatalf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := db2.CheckRefs(); err != nil {
		t.Fatalf("CheckRefs after recovery: %v", err)
	}
}

// TestHealth: the wal:engine condition of a durable site's /healthz reads
// ok with the engine's sequence while it is open and unhealthy once it is
// closed.
func TestHealth(t *testing.T) {
	eng, _, _ := seedSome(t, t.TempDir(), 3, Options{})
	got := eng.Health()["engine"]
	if want := fmt.Sprintf("ok(seq=%d)", eng.Seq()); got != want || eng.Seq() == 0 {
		t.Errorf("open engine reports %q, want %q with a nonzero seq", got, want)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Health()["engine"]; obs.Healthy(got) {
		t.Errorf("closed engine reports %q, a healthy state", got)
	}
}

// TestTornTailSweep crashes the log at every byte offset inside the tail
// region and asserts recovery always succeeds, recovering exactly the
// longest prefix of complete records.
func TestTornTailSweep(t *testing.T) {
	src := t.TempDir()
	eng, _, _ := seedSome(t, src, 8, Options{})
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	logBytes, err := os.ReadFile(filepath.Join(src, walFile))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries, and the reference dump after each complete prefix.
	var bounds []int64
	res, err := scanFrames(strings.NewReader(string(logBytes)), int64(len(logBytes)), func(rec record) error {
		return nil
	})
	if err != nil || res.torn {
		t.Fatalf("reference scan: err=%v torn=%v", err, res.torn)
	}
	off := int64(0)
	for off < int64(len(logBytes)) {
		bodyLen := int64(logBytes[off]) | int64(logBytes[off+1])<<8 | int64(logBytes[off+2])<<16 | int64(logBytes[off+3])<<24
		off += frameHeaderSize + bodyLen
		bounds = append(bounds, off)
	}

	refDump := func(upto int64) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), logBytes[:upto], 0o644); err != nil {
			t.Fatal(err)
		}
		eng, db, tables := reopen(t, dir, Options{})
		defer eng.Close()
		return dump(db, tables)
	}

	// Sweep truncation points across the last three frames plus a
	// garbage-appended tail.
	from := int64(0)
	if len(bounds) > 3 {
		from = bounds[len(bounds)-4]
	}
	for cut := from; cut < int64(len(logBytes)); cut += 3 {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		eng, db, tables := reopen(t, dir, Options{})
		// The recovered state must equal the longest complete prefix.
		prefix := int64(0)
		for _, b := range bounds {
			if b <= cut {
				prefix = b
			}
		}
		got := dump(db, tables)
		eng.Close()
		if want := refDump(prefix); got != want {
			t.Fatalf("cut=%d: recovered state != prefix state (prefix=%d)\nwant:\n%s\ngot:\n%s", cut, prefix, want, got)
		}
	}

	// Corrupt tail: flip a byte inside the last frame's body.
	corrupt := append([]byte(nil), logBytes...)
	corrupt[len(corrupt)-1] ^= 0xFF
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	eng2, db2, tables2 := reopen(t, dir, Options{})
	got := dump(db2, tables2)
	eng2.Close()
	if want := refDump(bounds[len(bounds)-2]); got != want {
		t.Fatalf("corrupt tail: recovered state mismatch\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Garbage appended past a valid log must be dropped.
	garbage := append(append([]byte(nil), logBytes...), 0xDE, 0xAD, 0xBE)
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	eng3, db3, tables3 := reopen(t, dir, Options{})
	got = dump(db3, tables3)
	eng3.Close()
	if want := refDump(int64(len(logBytes))); got != want {
		t.Fatalf("garbage tail: recovered state mismatch")
	}
}

// TestRecoveryAtProductionCadence: every other test here shortens the
// snapshot cadence; this one runs the default and its geometric deferral over
// 20 000 inserts and an index — snapshots after 4 096, ~8 200 and ~16 400
// appends, each waiting until the log holds as many appends as the last
// snapshot holds records — and a reopen recovers every insert.
func TestRecoveryAtProductionCadence(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	eng, db, tables := reopen(t, dir, Options{Metrics: reg})
	if _, err := db.CreateIndex("Student", "age"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for i := 0; i < 20000; i++ {
		attrs := map[string]object.Value{
			"s-no": object.Int(int64(100000 + i)),
			"name": object.Str(fmt.Sprintf("student-%d", i)),
		}
		if i%4 != 0 { // some nulls, like the paper's extents
			attrs["age"] = object.Int(int64(20 + i%40))
		}
		if err := db.Insert(object.New(object.LOid(fmt.Sprintf("s%06d", i)), "Student", attrs)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	want := dump(db, tables)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := reg.Snapshot().CounterValue("snapshots_total", metrics.Labels{Site: "DB1"}); got != 3 {
		t.Errorf("snapshots_total = %d over 20 001 appends, want 3", got)
	}

	eng2, db2, tables2 := reopen(t, dir, Options{})
	defer eng2.Close()
	if n := db2.Extent("Student").Len(); n != 20000 {
		t.Fatalf("recovered %d students, inserted 20000", n)
	}
	if got := dump(db2, tables2); got != want {
		t.Fatalf("recovered state differs from the state at close (%d bytes of dump, want %d)", len(got), len(want))
	}
}

// TestSnapshotRotation drives enough appends to cut snapshots, then
// verifies reopen recovers identical state from snapshot+log, and that
// stale log frames from the snapshot crash window are skipped by sequence.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	eng, db, tables := seedSome(t, dir, 40, Options{snapshotEvery: 16})
	want := dump(db, tables)
	seq := eng.Seq()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	// Simulate the crash window: re-append an already-snapshotted frame
	// (stale sequence) to the log; recovery must skip it.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	stale := appendFrame(nil, 1, recBind, encodeBind(nil, "Student", "gs0000", "DB1", "s0000"))
	if _, err := f.Write(stale); err != nil {
		t.Fatal(err)
	}
	f.Close()

	eng2, db2, tables2 := reopen(t, dir, Options{snapshotEvery: 16})
	defer eng2.Close()
	if got := dump(db2, tables2); got != want {
		t.Fatalf("recovered state differs after snapshot:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if eng2.Seq() < seq {
		t.Fatalf("sequence went backwards: %d < %d", eng2.Seq(), seq)
	}

	// The coordinator's pure bind log (no database behind it) compacts and
	// recovers the same way: binds from before and after the snapshot are
	// all there on reopen.
	logDir := t.TempDir()
	log, ltables, err := OpenLog(Options{Dir: logDir, Site: "G", snapshotEvery: 4})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 10; i++ {
		goid, loid := object.GOid(fmt.Sprintf("g%d", i)), object.LOid(fmt.Sprintf("s%d", i))
		if err := log.LogBind("Student", goid, "DB2", loid); err != nil {
			t.Fatalf("LogBind: %v", err)
		}
		ltables.Table("Student").MustBind(goid, "DB2", loid)
	}
	log.Close()
	if _, err := os.Stat(filepath.Join(logDir, snapFile)); err != nil {
		t.Fatalf("bind log wrote no snapshot: %v", err)
	}
	log2, ltables2, err := OpenLog(Options{Dir: logDir, Site: "G"})
	if err != nil {
		t.Fatalf("reopen bind log: %v", err)
	}
	defer log2.Close()
	if got, want := dump(nil, ltables2), dump(nil, ltables); got != want {
		t.Fatalf("recovered bind log differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestImportSeedsFixture(t *testing.T) {
	dir := t.TempDir()
	fx := school.New()
	eng, db, tables, err := Open(fx.Schemas["DB2"], Options{Dir: dir, Site: "DB2"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := eng.Import(fx.Databases["DB2"], fx.Mapping); err != nil {
		t.Fatalf("Import: %v", err)
	}
	want := dump(db, tables)
	eng.Close()
	eng2, db2, tables2, err := Open(fx.Schemas["DB2"], Options{Dir: dir, Site: "DB2"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if got := dump(db2, tables2); got != want {
		t.Fatalf("imported state did not survive reopen:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if db2.Len() != fx.Databases["DB2"].Len() {
		t.Fatalf("recovered %d objects, fixture has %d", db2.Len(), fx.Databases["DB2"].Len())
	}
}
