package bench

import "testing"

// TestRunDurabilitySmoke: the durability topic's driver end to end at a
// small size — three engines, every durable directory recovers every
// inserted object, and each cell reports what its engine did.
func TestRunDurabilitySmoke(t *testing.T) {
	spec := DurabilitySpec{Objects: 60, Seed: 7, Rounds: 2}
	var lines []string
	r, err := RunDurability(spec, t.TempDir(), func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatalf("RunDurability: %v", err)
	}
	cells, _ := r.Cells.([]DurabilityCell)
	if len(cells) != 3 || len(lines) != 3 {
		t.Fatalf("got cells %+v and %d progress lines, want the mem, wal and wal-fsync cells", r.Cells, len(lines))
	}
	for _, c := range cells {
		if c.Objects != spec.Objects || c.InsertWallMillis <= 0 {
			t.Errorf("%s: %d objects in %.3f ms, want %d in a positive time", c.Engine, c.Objects, c.InsertWallMillis, spec.Objects)
		}
		switch c.Engine {
		case "mem":
			if c.WriteOverhead != 1 || c.WALAppends != 0 || c.RecoveredObjects != 0 {
				t.Errorf("mem cell = %+v, want overhead 1 and nothing logged or recovered", c)
			}
		case "wal", "wal-fsync":
			if c.RecoveredObjects != int64(spec.Objects) {
				t.Errorf("%s recovered %d objects, inserted %d", c.Engine, c.RecoveredObjects, spec.Objects)
			}
			if c.WALAppends < int64(spec.Objects) || c.WALBytes <= 0 {
				t.Errorf("%s logged %d appends, %d bytes for %d inserts", c.Engine, c.WALAppends, c.WALBytes, spec.Objects)
			}
			if (c.Engine == "wal-fsync") != (c.WALSyncs > 0) {
				t.Errorf("%s synced %d times", c.Engine, c.WALSyncs)
			}
		default:
			t.Errorf("unexpected engine %q", c.Engine)
		}
	}
}
