package wal

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
)

// TestCrashHelper is not a test: it is the child process of
// TestKillNineMidInsert. It opens the durable engine with per-append fsync,
// resumes inserting where the recovered state left off, and prints
// "acked N" after each applied insert+bind until it is SIGKILLed.
func TestCrashHelper(t *testing.T) {
	dir := os.Getenv("WAL_CRASH_DIR")
	if dir == "" {
		t.Skip("helper process for TestKillNineMidInsert")
	}
	eng, db, tables, err := Open(school.Schemas()["DB1"], Options{
		Dir: dir, Site: "DB1", Fsync: true, snapshotEvery: 32,
	})
	if err != nil {
		fmt.Printf("open failed: %v\n", err)
		os.Exit(1)
	}
	if db.Extent("Student").Index("age") == nil {
		if _, err := db.CreateIndex("Student", "age"); err != nil {
			fmt.Printf("index failed: %v\n", err)
			os.Exit(1)
		}
	}
	out := bufio.NewWriter(os.Stdout)
	for i := db.Extent("Student").Len(); ; i++ {
		o := object.New(object.LOid(fmt.Sprintf("s%05d", i)), "Student", map[string]object.Value{
			"s-no": object.Int(int64(i)),
			"name": object.Str(fmt.Sprintf("student-%d", i)),
			"age":  object.Int(int64(18 + i%30)),
		})
		if err := db.Insert(o); err != nil {
			fmt.Printf("insert failed: %v\n", err)
			os.Exit(1)
		}
		goid := object.GOid(fmt.Sprintf("gs%05d", i))
		if err := eng.LogBind("Student", goid, "DB1", o.LOid); err != nil {
			fmt.Printf("logbind failed: %v\n", err)
			os.Exit(1)
		}
		if err := tables.Table("Student").Bind(goid, "DB1", o.LOid); err != nil {
			fmt.Printf("bind failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "acked %d\n", i)
		out.Flush()
	}
}

// TestKillNineMidInsert SIGKILLs a durable site mid-append across several
// restart rounds and asserts the recovered state covers every acked write
// and is internally consistent: scan order, LOid index, secondary indexes,
// incremental byte counts, and GOid bindings all agree.
func TestKillNineMidInsert(t *testing.T) {
	dir := t.TempDir()
	lastAcked := -1
	startIdx := 0 // first index the helper inserts (and binds) this round
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$", "-test.v")
		cmd.Env = append(os.Environ(), "WAL_CRASH_DIR="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Kill mid-stream after a round-dependent number of acks so each
		// round crashes at a different log/snapshot position.
		target := lastAcked + 20 + round*17
		sc := bufio.NewScanner(stdout)
		deadline := time.After(30 * time.Second)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "acked ") {
				continue
			}
			n, err := strconv.Atoi(strings.TrimPrefix(line, "acked "))
			if err != nil {
				t.Fatalf("bad ack line %q", line)
			}
			lastAcked = n
			if n >= target {
				break
			}
			select {
			case <-deadline:
				t.Fatal("helper did not reach ack target in time")
			default:
			}
		}
		if lastAcked < target {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper exited early (last acked %d, want %d)", lastAcked, target)
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		eng, db, tables := reopen(t, dir, Options{Fsync: true, snapshotEvery: 32})
		ext := db.Extent("Student")
		if ext.Len() < lastAcked+1 {
			t.Fatalf("round %d: recovered %d students, %d were acked", round, ext.Len(), lastAcked+1)
		}
		// Internal consistency: insertion order covers exactly the extent,
		// each object resolves through the LOid index, the age index matches
		// the extent, and every recovered object keeps its GOid binding.
		seen := make(map[object.LOid]bool, ext.Len())
		n := 0
		ext.Scan(func(o *object.Object) bool {
			if seen[o.LOid] {
				t.Fatalf("round %d: %s appears twice in scan order", round, o.LOid)
			}
			seen[o.LOid] = true
			if got, ok := db.Deref(o.LOid); !ok || got != o {
				t.Fatalf("round %d: LOid index misses %s", round, o.LOid)
			}
			want := object.LOid(fmt.Sprintf("s%05d", n))
			if o.LOid != want {
				t.Fatalf("round %d: scan position %d holds %s, want %s", round, n, o.LOid, want)
			}
			n++
			return true
		})
		ix := ext.Index("age")
		if ix == nil {
			t.Fatalf("round %d: age index lost", round)
		}
		if ix.Len()+len(ix.Nulls()) != ext.Len() {
			t.Fatalf("round %d: age index has %d+%d entries for %d objects",
				round, ix.Len(), len(ix.Nulls()), ext.Len())
		}
		// Bindings are checked for this round's acked range only: a kill
		// between an insert and its bind legitimately leaves the trailing
		// object unbound, and the next round resumes past it.
		tbl := tables.Table("Student")
		for i := startIdx; i <= lastAcked; i++ {
			loid := object.LOid(fmt.Sprintf("s%05d", i))
			goid, ok := tbl.GOidOf("DB1", loid)
			if !ok || goid != object.GOid(fmt.Sprintf("gs%05d", i)) {
				t.Fatalf("round %d: binding for %s missing or wrong (%q, %v)", round, loid, goid, ok)
			}
		}
		lastAcked = ext.Len() - 1 // an unacked trailing insert may have survived
		startIdx = ext.Len()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
