package wal

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from seedLogs")

// seedLogs are FuzzScanFrames' seeds: a snapshot-shaped log holding every
// record kind, and that log with a torn tail, a flipped bit in its last
// frame, and a length prefix past the end.
func seedLogs(tb testing.TB) [][]byte {
	o := object.New("s1'", "Student", map[string]object.Value{
		"name": object.Str("John"), "age": object.Int(31), "advisor": object.Ref("t1"),
	})
	insert, err := object.AppendObject(nil, o)
	if err != nil {
		tb.Fatal(err)
	}
	log := appendFrame(nil, 0, recHeader, binary.AppendUvarint(nil, 3))
	log = appendFrame(log, 1, recInsert, insert)
	log = appendFrame(log, 2, recIndex, encodeIndex(nil, "Student", "name"))
	log = appendFrame(log, 3, recBind, encodeBind(nil, "Student", "gs1", "DB1", "s1'"))
	flipped := bytes.Clone(log)
	flipped[len(flipped)-2] ^= 0x10
	overlong := binary.LittleEndian.AppendUint32(bytes.Clone(log), 1<<20)
	return [][]byte{log, log[:len(log)-5], flipped, overlong}
}

// FuzzScanFrames: whatever bytes a log file holds, scanning them never
// panics, allocates at most a constant multiple of them, and stops at the
// last whole valid frame — a partial or CRC-corrupt frame is a torn tail, a
// CRC-valid one that does not decode an error — and the records it accepted
// re-encode, framed by appendFrame, to exactly the bytes of the accepted
// prefix. The input is scanned as it is and with every whole frame's CRC
// made valid, so the payloads the fuzzer varies reach decodeRecord. Seeds:
// testdata/fuzz, pinned to seedLogs by TestFuzzCorpusIsCurrent.
func FuzzScanFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, data)
		checkScan(t, withValidCRCs(data))
	})
}

// withValidCRCs copies data with the CRC of every frame that fits recomputed.
func withValidCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; len(out)-off >= frameHeaderSize; {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n < 9 || n > len(out)-off-frameHeaderSize {
			break
		}
		body := out[off+frameHeaderSize : off+frameHeaderSize+n]
		binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(body))
		off += frameHeaderSize + n
	}
	return out
}

// checkScan holds one scan of data to FuzzScanFrames' properties.
func checkScan(t *testing.T, data []byte) {
	var (
		recs []record
		res  scanResult
		err  error
	)
	scan := func() uint64 {
		recs = recs[:0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err = scanFrames(bytes.NewReader(data), int64(len(data)), func(rec record) error {
			recs = append(recs, rec)
			return nil
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The counter is the process's, and a fuzz worker's own goroutines
	// allocate now and then: a reading over the limit is taken again.
	got, limit := scan(), uint64(64*len(data)+8192)
	for again := 0; got > limit && again < 3; again++ {
		got = min(got, scan())
	}
	if got > limit {
		t.Fatalf("scanning %d bytes allocated %d (limit %d)", len(data), got, limit)
	}

	var prefix []byte
	for _, rec := range recs {
		payload, err := appendPayload(nil, rec)
		if err != nil {
			t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
		}
		prefix = appendFrame(prefix, rec.seq, rec.kind, payload)
	}
	if !bytes.Equal(prefix, data[:res.good]) {
		t.Fatalf("the %d accepted records re-encode to %x, the accepted prefix is %x", len(recs), prefix, data[:res.good])
	}

	// What stopped the scan at res.good: the end, a torn frame, or (with
	// an error) a CRC-valid frame that does not decode.
	rest := data[res.good:]
	whole := len(rest) >= frameHeaderSize
	if whole {
		n := int64(binary.LittleEndian.Uint32(rest))
		whole = n >= 9 && n <= maxFrameBytes && n <= int64(len(rest)-frameHeaderSize) &&
			crc32.ChecksumIEEE(rest[frameHeaderSize:frameHeaderSize+n]) == binary.LittleEndian.Uint32(rest[4:])
	}
	switch {
	case err != nil && !whole:
		t.Fatalf("scan failed (%v) at %d, where no whole frame starts", err, res.good)
	case err == nil && whole:
		t.Fatalf("scan stopped at %d, before a whole valid frame", res.good)
	case err == nil && (res.torn != (len(rest) > 0) || res.tornBytes != int64(len(rest))):
		t.Fatalf("scan of %d bytes stopped at %d reporting torn=%v, %d torn bytes", len(data), res.good, res.torn, res.tornBytes)
	}
}

// TestFuzzCorpusIsCurrent pins the committed seed corpus to seedLogs
// (go test ./internal/store/wal -run TestFuzzCorpusIsCurrent -update-corpus).
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzScanFrames")
	logs := seedLogs(t)
	for i, log := range logs {
		file := filepath.Join(dir, fmt.Sprintf("seed-%d", i+1))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", log)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != want {
			t.Errorf("%s: seed %d is not current (%v; run with -update-corpus)", file, i+1, err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(logs) {
		t.Errorf("%s holds %d seeds, seedLogs has %d", dir, len(files), len(logs))
	}
}
