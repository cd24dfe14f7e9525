// Package wal implements the persistent storage engine behind
// store.StorageEngine: an append-only, length-prefixed, CRC-checked
// write-ahead log with periodic snapshots and crash-recovery replay.
//
// # On-disk layout
//
// An engine owns one directory with at most three files:
//
//	wal.log       the append-only log of mutations since the last snapshot
//	snapshot.snap the compacted state at some log sequence number (baseSeq)
//	snapshot.tmp  an in-progress snapshot (removed on open; never read)
//
// Both files are sequences of frames:
//
//	[u32 body length][u32 CRC32-IEEE of body][body]
//	body = [u64 sequence number][u8 kind][payload]
//
// All fixed-width integers are little-endian; payload fields are
// uvarint-length-prefixed strings. Record kinds are insert (one object, in
// the record encoding of object.AppendObject, which the wire shares),
// index (secondary index creation), bind (one GOid mapping-table entry),
// and header (snapshot files only: carries baseSeq, the log sequence the
// snapshot state includes up to).
//
// # Crash safety
//
// Appends follow write-ahead discipline: the frame is logged (and, under
// -fsync, synced) before the mutation is applied in memory. Recovery loads
// the snapshot (if any), then replays wal.log frames with seq > baseSeq. A
// torn or CRC-corrupt tail frame — the signature of a crash mid-append —
// is truncated away rather than failing recovery; everything before it is
// kept. Snapshots are written to snapshot.tmp, synced, renamed over
// snapshot.snap, and the directory synced, so a crash at any point leaves
// either the old or the new snapshot intact; the seq>baseSeq replay filter
// makes the crash window between rename and log truncation harmless
// (duplicate frames are skipped by sequence number).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/hetfed/hetfed/internal/object"
)

// Record kinds.
const (
	recInsert = byte(1) // payload: one object record (object.AppendObject)
	recIndex  = byte(2) // payload: class, attr
	recBind   = byte(3) // payload: class, goid, site, loid
	recHeader = byte(4) // payload: baseSeq (first frame of a snapshot file)
)

// frameHeaderSize is the fixed prefix of every frame: body length + CRC.
const frameHeaderSize = 8

// maxFrameBytes bounds a single record; a length prefix beyond it is
// treated as corruption (it would otherwise make recovery attempt a huge
// allocation from a few flipped bits).
const maxFrameBytes = 16 << 20

// record is one decoded WAL record.
type record struct {
	seq  uint64
	kind byte

	obj *object.Object // recInsert

	class string // recInsert, recIndex, recBind
	attr  string // recIndex

	goid object.GOid   // recBind
	site object.SiteID // recBind
	loid object.LOid   // recBind

	base uint64 // recHeader
}

// appendFrame encodes a full frame (header + body) into dst.
func appendFrame(dst []byte, seq uint64, kind byte, payload []byte) []byte {
	bodyLen := 8 + 1 + len(payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder
	bodyAt := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, kind)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[bodyAt:])
	binary.LittleEndian.PutUint32(dst[crcAt:], crc)
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return "", nil, fmt.Errorf("wal: corrupt string field")
	}
	return string(b[w : w+int(n)]), b[w+int(n):], nil
}

func encodeIndex(dst []byte, class, attr string) []byte {
	dst = appendString(dst, class)
	return appendString(dst, attr)
}

func encodeBind(dst []byte, class string, goid object.GOid, site object.SiteID, loid object.LOid) []byte {
	dst = appendString(dst, class)
	dst = appendString(dst, string(goid))
	dst = appendString(dst, string(site))
	return appendString(dst, string(loid))
}

// decodeRecord decodes one frame body (seq + kind already split off by the
// scanner) into a record.
func decodeRecord(seq uint64, kind byte, payload []byte) (record, error) {
	rec := record{seq: seq, kind: kind}
	var err error
	switch kind {
	case recInsert:
		rec.obj, _, err = object.DecodeObject(payload, nil)
		if rec.obj != nil {
			rec.class = rec.obj.Class
		}
	case recIndex:
		rec.class, payload, err = readString(payload)
		if err == nil {
			rec.attr, _, err = readString(payload)
		}
	case recBind:
		var g, s, l string
		rec.class, payload, err = readString(payload)
		if err == nil {
			g, payload, err = readString(payload)
		}
		if err == nil {
			s, payload, err = readString(payload)
		}
		if err == nil {
			l, _, err = readString(payload)
		}
		rec.goid, rec.site, rec.loid = object.GOid(g), object.SiteID(s), object.LOid(l)
	case recHeader:
		n, w := binary.Uvarint(payload)
		if w <= 0 {
			err = fmt.Errorf("wal: corrupt snapshot header")
		}
		rec.base = n
	default:
		err = fmt.Errorf("wal: unknown record kind %d", kind)
	}
	return rec, err
}

// scanResult reports how a file scan ended.
type scanResult struct {
	good      int64 // offset just past the last fully valid frame
	torn      bool  // the scan hit a partial or CRC-corrupt tail
	tornBytes int64 // bytes from the torn point to end of file
}

// scanFrames reads frames from r (a file positioned at 0, size known),
// calling fn for each decoded record. It stops cleanly at EOF, or at the
// first partial/CRC-corrupt frame — reported as a torn tail, never an
// error. Decode errors inside a CRC-valid frame and fn errors abort the
// scan (they indicate real corruption or schema drift, not a torn append).
func scanFrames(r io.Reader, size int64, fn func(record) error) (scanResult, error) {
	res := scanResult{}
	hdr := make([]byte, frameHeaderSize)
	var body []byte
	for res.good < size {
		if size-res.good < frameHeaderSize {
			res.torn, res.tornBytes = true, size-res.good
			return res, nil
		}
		if _, err := io.ReadFull(r, hdr); err != nil {
			return res, fmt.Errorf("wal: read frame header: %w", err)
		}
		bodyLen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if bodyLen < 9 || bodyLen > maxFrameBytes || bodyLen > size-res.good-frameHeaderSize {
			res.torn, res.tornBytes = true, size-res.good
			return res, nil
		}
		if int64(cap(body)) < bodyLen {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := io.ReadFull(r, body); err != nil {
			return res, fmt.Errorf("wal: read frame body: %w", err)
		}
		if crc32.ChecksumIEEE(body) != crc {
			res.torn, res.tornBytes = true, size-res.good
			return res, nil
		}
		seq := binary.LittleEndian.Uint64(body[0:8])
		rec, err := decodeRecord(seq, body[8], body[9:])
		if err != nil {
			return res, err
		}
		if err := fn(rec); err != nil {
			return res, err
		}
		res.good += frameHeaderSize + bodyLen
	}
	return res, nil
}
