package remote

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/tvl"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz seed files from the sample messages")

var (
	sampleTrace = TraceContext{QueryID: "rq7-1f", Alg: "BL", Span: 0xDEADBEEFCAFE, From: "G"}
	// The points of two predicates, each left unsolved at two depths, as one
	// bound query shares them among its items, and an odd one out.
	samplePath1  = query.Path{"advisor", "speciality"}
	samplePath2  = query.Path{"advisor", "department", "name"}
	samplePoints = [2][2]*query.Point{
		{{ItemClass: "Student", SourceIdx: 1, Suffix: query.Predicate{Path: samplePath1, Op: query.OpEq, Literal: object.Str("database")}},
			{ItemClass: "Teacher", SourceIdx: 1, Suffix: query.Predicate{Path: samplePath1[1:], Op: query.OpEq, Literal: object.Str("database")}}},
		{{ItemClass: "Student", SourceIdx: 2, Suffix: query.Predicate{Path: samplePath2, Op: query.OpEq, Literal: object.Str("CS")}},
			{ItemClass: "Teacher", SourceIdx: 2, Suffix: query.Predicate{Path: samplePath2[1:], Op: query.OpEq, Literal: object.Str("CS")}}},
	}
	sampleOddPoint = &query.Point{ItemClass: "Teacher", SourceIdx: -1,
		Suffix: query.Predicate{Path: query.Path{"tags"}, Op: query.OpNe, Literal: object.List(object.Int(1), object.Str("x"))}}
	// Interleaved: every point is defined once, where the list first uses
	// it, and referred back to after other points came between; one item
	// has no point at all.
	sampleItems = []federation.CheckItem{
		{Assistant: "t1'", ItemGOid: "gt1", Point: samplePoints[1][1]},
		{Assistant: "t2'", ItemGOid: "gt2", Point: samplePoints[0][1]},
		{Assistant: "t3'", ItemGOid: "gt3", Point: samplePoints[1][1]},
		{Assistant: "s4'", ItemGOid: "gs4", Point: samplePoints[0][0]},
		{Assistant: "t2'", ItemGOid: "gt2", Point: sampleOddPoint},
		{Assistant: "s5'", ItemGOid: "gs5", Point: samplePoints[1][0]},
		{Assistant: "t6'", ItemGOid: "gt6"},
		{Assistant: "s6'", ItemGOid: "gs6", Point: samplePoints[0][0]},
		{Assistant: "t7'", ItemGOid: "gt7", Point: samplePoints[0][1]},
	}
	sampleDigests = func() map[string]antientropy.Digest {
		var a, b antientropy.Digest
		a.Add("gs1", "DB1", "s1")
		a.Add("gs1", "DB2", "s1'")
		b.Add("gt1", "DB3", "t1")
		return map[string]antientropy.Digest{"Student": a, "Teacher": b}
	}()
	sampleBindings = []antientropy.Binding{{GOid: "gs1", Site: "DB1", LOid: "s1"}, {GOid: "gs1", Site: "DB2", LOid: "s1'"}}
	sampleStudent  = object.New("s9", "Student", map[string]object.Value{
		"name": object.Str("Hedy"), "age": object.Int(24), "advisor": object.Ref("t2"),
		"courses": object.List(object.Ref("c1"), object.Ref("c2")), "gpa": object.Float(3.7), "ta": object.Bool(true),
	})
	sampleVerdicts = []federation.CheckVerdict{
		{ItemGOid: "gt1", SourceIdx: 1, SuffixLen: 1, Verdict: tvl.False},
		{ItemGOid: "gt2", SourceIdx: 2, SuffixLen: 3, Verdict: tvl.Unknown},
	}
	// Span-clock times as the tracer stamps them: microseconds since its
	// epoch, with a fraction the float64 carries exactly.
	sampleStart = 55_123_456_789.125
	sampleSpans = []trace.Span{
		{ID: 11, Parent: 3, Query: "rq7-1f", Algorithm: "BL", Site: "DB1", Name: "serve:local", Phases: "PO",
			Detail: "3 local rows", Start: sampleStart, End: sampleStart + 1500,
			Counters: map[string]int64{"rows": 3, "disk_bytes": 4096, "cpu_ops": -1}},
		// An open span: End is -1 and must come back as -1.
		{ID: 12, Parent: 11, Query: "rq7-1f", Algorithm: "BL", Site: "DB2", Name: "serve:check", Phases: "O",
			Start: sampleStart + 1000, End: -1},
	}
)

// projectedCopy rebuilds o restricted to attrs the slow way: what a retrieve
// reply decodes to, and what its encoder must write without building.
func projectedCopy(o *object.Object, attrs ...string) *object.Object {
	kept := make(map[string]object.Value, len(attrs))
	for _, a := range attrs {
		kept[a] = o.Attr(a)
	}
	return object.New(o.LOid, o.Class, kept)
}

// sampleRequests holds one populated message of every request kind.
func sampleRequests() map[string]Request {
	return map[string]Request{
		"ping":         {Kind: kindPing, Trace: TraceContext{From: "G"}},
		"retrieve":     {Kind: kindRetrieve, Trace: sampleTrace, DeadlineMicros: 250_001, Query: `select name from Student where address.city = "Taipei"`},
		"local":        {Kind: kindLocal, Trace: sampleTrace, DeadlineMicros: 1, Query: "select name from Student"},
		"check":        {Kind: kindCheck, Trace: sampleTrace, Items: sampleItems},
		"store":        {Kind: kindStore, Trace: TraceContext{From: "G"}, Store: sampleStudent},
		"bind":         {Kind: kindBind, Bind: &antientropy.Delta{Class: "Student", GOid: "gs9", Site: "DB1", LOid: "s9"}},
		"digest":       {Kind: kindDigest, Trace: TraceContext{From: "DB2"}, Digests: sampleDigests},
		"repair":       {Kind: kindRepair, Repair: &antientropy.Repair{Class: "Student", Buckets: []int{0, 17, 63}, Bindings: sampleBindings}},
		"repair-empty": {Kind: kindRepair, Repair: &antientropy.Repair{Class: "Student"}},
		"unknown-kind": {Kind: "nonsense", DeadlineMicros: -5},
	}
}

// sampleResponses holds one populated message of every response shape.
func sampleResponses() map[string]Response {
	return map[string]Response{
		"empty": {},
		"error": {Err: errDeadline},
		"retrieve": {
			Retrieve: federation.RetrieveReply{Site: "DB1", Classes: []federation.ClassObjects{
				{GlobalClass: "Student", Attrs: []string{"advisor", "name"}, Objects: []*object.Object{
					projectedCopy(sampleStudent, "advisor", "name"),
					object.New("s10", "Student", nil),
				}},
				{GlobalClass: "Teacher", Attrs: []string{"speciality"}},
			}},
			Suspect: []string{"Student", "Teacher"},
		},
		"local": {
			Local: LocalReply{
				Result: federation.LocalResult{
					Site: "DB1",
					Rows: []federation.LocalRow{
						{LOid: "s1", GOid: "gs1",
							Targets:  []object.Value{object.Str("John"), object.Null(), object.GRef("gt1"), {}, object.List(object.GRef("gc1"))},
							Verdicts: []tvl.Truth{tvl.True, tvl.Unknown},
							Unsolved: []federation.UnsolvedItem{
								{ItemGOid: "gt1", Point: samplePoints[0][1], Multi: true},
								{ItemGOid: "gs1", Point: samplePoints[1][0], SelfItem: true},
							}},
						{LOid: "s2", GOid: "gs2"},
						// A later row of the same frame: back-references only,
						// in another order, and an item without a point.
						{LOid: "s3", GOid: "gs3", Verdicts: []tvl.Truth{tvl.Unknown, tvl.Unknown},
							Unsolved: []federation.UnsolvedItem{
								{ItemGOid: "gs3", Point: samplePoints[1][0], SelfItem: true},
								{ItemGOid: "gt9"},
								{ItemGOid: "gt1", Point: samplePoints[0][1]},
								{ItemGOid: "gt4", Point: samplePoints[1][1], Multi: true},
							}},
					},
					SigVerdicts: sampleVerdicts[:1],
				},
				CheckReplies: []federation.CheckReply{{Site: "DB2", Verdicts: sampleVerdicts}, {Site: "DB3"}},
				Unavailable:  []federation.SiteFailure{{Site: "DB3", Reason: "dial tcp: connection refused"}},
			},
		},
		"check":        {Check: federation.CheckReply{Site: "DB2", Verdicts: sampleVerdicts}},
		"spans":        {Check: federation.CheckReply{Site: "DB2"}, Spans: sampleSpans},
		"digest":       {Digests: sampleDigests},
		"repair":       {Repair: &antientropy.RepairReply{Bindings: sampleBindings, Applied: 2, Conflicts: 1}},
		"repair-empty": {Repair: &antientropy.RepairReply{}},
	}
}

// TestRetrieveRecordIsWrittenThroughTheMask: a reply that lists stored
// objects beside a projection encodes to the bytes of a reply that lists
// projected copies — and leaves the stored objects as they were.
func TestRetrieveRecordIsWrittenThroughTheMask(t *testing.T) {
	want := sampleResponses()["retrieve"]
	stored := sampleResponses()["retrieve"]
	before := sampleStudent.String()
	stored.Retrieve.Classes[0].Objects = []*object.Object{sampleStudent, object.New("s10", "Student", nil)}
	if got := encodeResponse(t, stored); !bytes.Equal(got, encodeResponse(t, want)) {
		t.Errorf("masked encoding differs from the encoding of projected copies:\n%x\n%x", got, encodeResponse(t, want))
	}
	if stored.Retrieve.WireSize() != want.Retrieve.WireSize() {
		t.Errorf("modeled size %d through the mask, %d of the copies", stored.Retrieve.WireSize(), want.Retrieve.WireSize())
	}
	if sampleStudent.String() != before {
		t.Errorf("encoding changed the stored object: %s", sampleStudent)
	}
}

func encodeRequest(t testing.TB, req Request) []byte {
	t.Helper()
	var w frameBuf
	w.request(&req)
	if w.err != nil {
		t.Fatalf("encode request: %v", w.err)
	}
	return w.b
}

func encodeResponse(t testing.TB, resp Response) []byte {
	t.Helper()
	var w frameBuf
	w.response(&resp)
	if w.err != nil {
		t.Fatalf("encode response: %v", w.err)
	}
	return w.b
}

// TestCodecRoundTrip: decode(encode(m)) == m for every request kind and
// response shape, field for field — values inside rows, open and closed
// spans, nil pointers — except that a decoded retrieve list is Owned: its
// objects are the receiver's own.
func TestCodecRoundTrip(t *testing.T) {
	for name, want := range sampleRequests() {
		got, err := decodeRequest(encodeRequest(t, want))
		if err != nil {
			t.Errorf("request %s: %v", name, err)
		} else if !object.Identical(got, want) {
			t.Errorf("request %s:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for name, want := range sampleResponses() {
		for i := range want.Retrieve.Classes {
			want.Retrieve.Classes[i].Owned = true
		}
		got, err := decodeResponse(encodeResponse(t, want))
		if err != nil {
			t.Errorf("response %s: %v", name, err)
		} else if !object.Identical(got, want) {
			t.Errorf("response %s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestCodecKeepsWhatCallersDependOn spells out the behaviours the round
// trip implies but callers lean on by name.
func TestCodecKeepsWhatCallersDependOn(t *testing.T) {
	resp, err := decodeResponse(encodeResponse(t, sampleResponses()["spans"]))
	if err != nil {
		t.Fatal(err)
	}
	if open := resp.Spans[1]; !open.Open() || open.DurationMicros() != 0 {
		t.Errorf("open span came back closed: End = %v", open.End)
	}
	if closed := resp.Spans[0]; closed.DurationMicros() != 1500 || closed.Start != sampleStart {
		t.Errorf("closed span: start %v, %v us", closed.Start, closed.DurationMicros())
	}

	// Empty lists decode to nil, as they did under gob; a non-nil empty
	// pointer stays non-nil, a nil one nil.
	req, err := decodeRequest(encodeRequest(t, Request{Kind: kindCheck, Items: []federation.CheckItem{},
		Digests: map[string]antientropy.Digest{}, Repair: &antientropy.Repair{Buckets: []int{}}}))
	if err != nil {
		t.Fatal(err)
	}
	if req.Items != nil || req.Digests != nil || req.Store != nil || req.Bind != nil {
		t.Errorf("empty or absent fields did not decode to nil: %+v", req)
	}
	if req.Repair == nil || req.Repair.Buckets != nil {
		t.Errorf("Repair = %+v, want non-nil with nil buckets", req.Repair)
	}

	// The zero Value and null are different values and both survive.
	row := sampleResponses()["local"].Local.Result.Rows[0]
	got, err := decodeResponse(encodeResponse(t, sampleResponses()["local"]))
	if err != nil {
		t.Fatal(err)
	}
	targets := got.Local.Result.Rows[0].Targets
	if !targets[1].IsNull() || targets[3].Kind() != 0 || len(targets) != len(row.Targets) {
		t.Errorf("null / zero Value corrupted: %#v", targets)
	}
}

// TestDecodedStoreObjectOwnsItsMemory: the payload buffer goes back to the
// pool the moment decoding returns, while the stored object lives on in the
// database.
func TestDecodedStoreObjectOwnsItsMemory(t *testing.T) {
	b := encodeRequest(t, sampleRequests()["store"])
	req, err := decodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xFF
	}
	if !object.Identical(req.Store, sampleStudent) || req.Kind != kindStore || req.Trace.From != "G" {
		t.Errorf("request changed with its payload buffer: %+v", req)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := encodeRequest(t, sampleRequests()["check"])
	for n := 0; n < len(good); n++ {
		if _, err := decodeRequest(good[:n]); err == nil {
			t.Fatalf("request truncated to %d of %d bytes decoded", n, len(good))
		}
	}
	if _, err := decodeRequest(append(good[:len(good):len(good)], 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	resp := encodeResponse(t, sampleResponses()["local"])
	for n := 0; n < len(resp); n++ {
		if _, err := decodeResponse(resp[:n]); err == nil {
			t.Fatalf("response truncated to %d of %d bytes decoded", n, len(resp))
		}
	}

	// Point references: 0 is nil, 1..n an entry the frame has defined, n+1
	// the next definition. Anything else points outside the table.
	for _, c := range []struct {
		name string
		refs []uint64 // one check item per ref; a definition's body follows ref n+1
		ok   bool
	}{
		{"nil, define, refer back", []uint64{0, 1, 1, 2, 1, 2, 0}, true},
		{"reference into an empty table", []uint64{2}, false},
		{"reference one past the next definition", []uint64{1, 3}, false},
		{"reference far outside", []uint64{1, 2, 1 << 40}, false},
	} {
		if _, err := decodeRequest(checkRequestWithRefs(c.refs)); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

// TestDecodeRefusesMalformedRetrieveLists: a retrieve list has one
// encoding, and everything else in its place is malformed — as is a list
// whose objects are of more than one class, at the encoder.
func TestDecodeRefusesMalformedRetrieveLists(t *testing.T) {
	value := func(v object.Value) []byte {
		b, err := object.AppendValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	raw := func(b ...byte) []byte { return append([]byte{byte(len(b))}, b...) }
	record := func(present []byte, values ...[]byte) []byte {
		b := append([]byte{1, 'x'}, present...)
		for _, v := range values {
			b = append(b, v...)
		}
		return b
	}
	one, str := value(object.Int(1)), value(object.Str("s"))
	for _, c := range []struct {
		name    string
		attrs   []string
		n       uint64
		records []byte
		ok      bool
	}{
		{"well formed", []string{"a", "b"}, 1, record([]byte{0b11}, one, str), true},
		{"nothing present", []string{"a", "b"}, 2, append(record([]byte{0}), record([]byte{0b10}, str)...), true},
		{"attributes out of order", []string{"b", "a"}, 0, nil, false},
		{"attribute repeated", []string{"a", "a"}, 0, nil, false},
		{"bit past the attributes", []string{"a"}, 1, record([]byte{0b11}, one, one), false},
		{"bit past nine attributes", []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}, 1, record([]byte{0, 0b10}, one), false},
		{"null marked present", []string{"a"}, 1, record([]byte{1}, value(object.Null())), false},
		{"zero kind marked present", []string{"a"}, 1, record([]byte{1}, value(object.Value{})), false},
		{"count over the bytes left", []string{"a"}, 1000, record([]byte{1}, one), false},
		{"value missing", []string{"a", "b"}, 1, record([]byte{0b11}, one), false},
		{"non-canonical bool", []string{"a"}, 1, record([]byte{1}, raw(byte(object.KindBool), 2, 0, 0, 0, 0, 0, 0, 0)), false},
		{"invalid kind", []string{"a"}, 1, record([]byte{1}, raw(99)), false},
	} {
		var w frameBuf
		w.str("")    // Err
		w.str("DB1") // Retrieve.Site
		w.uvarint(1) // one list
		w.str("Student")
		w.strs(c.attrs)
		w.uvarint(c.n)
		w.b = append(w.b, c.records...)
		w.b = append(w.b, encodeResponse(t, Response{})[3:]...) // an empty response past its retrieve reply
		_, err := decodeResponse(w.b)
		if c.ok && err != nil || !c.ok && !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want ok = %v or %v", c.name, err, c.ok, errMalformed)
		}
	}
}

// checkRequestWithRefs hand-encodes a check request whose i-th item carries
// point reference refs[i], followed by a point body wherever the reference
// is the next definition.
func checkRequestWithRefs(refs []uint64) []byte {
	var w frameBuf
	w.str(kindCheck)
	w.trace(&TraceContext{})
	w.i64(0)
	w.str("")
	w.uvarint(uint64(len(refs)))
	defined := uint64(0)
	for _, ref := range refs {
		w.str("a")
		w.str("g")
		w.uvarint(ref)
		if ref == defined+1 {
			defined++
			w.str("Teacher")
			w.predicate(&samplePoints[0][1].Suffix)
			w.int(1)
		}
	}
	w.u8(0)      // Store
	w.u8(0)      // Bind
	w.uvarint(0) // Digests
	w.u8(0)      // Repair
	return w.b
}

// TestVersionOneFrameRefusedAtHeader: protocol version 1 spelled every
// check item's predicate out; a peer still speaking it is turned away from
// the five header bytes, before any of its payload is read as the current
// version.
func TestVersionOneFrameRefusedAtHeader(t *testing.T) { refusedAtHeader(t, 1) }

// TestVersionTwoFrameRefusedAtHeader: version 2 carried a batch list in every
// request and a batch-reply list in every response; read as the current
// version its fields would be off by one from there on.
func TestVersionTwoFrameRefusedAtHeader(t *testing.T) { refusedAtHeader(t, 2) }

// TestVersionThreeFrameRefusedAtHeader: version 3 shipped a retrieve list's
// objects as named records; read as the current version a record's class
// would be taken for its LOid.
func TestVersionThreeFrameRefusedAtHeader(t *testing.T) { refusedAtHeader(t, 3) }

// TestVersionFourFrameRefusedAtHeader: version 4 named a retrieve list's
// local class after its mask and a request's local mode after its query;
// read as version 5 a list's class would be taken for its object count, and
// a request's mode for its check items.
func TestVersionFourFrameRefusedAtHeader(t *testing.T) { refusedAtHeader(t, 4) }

// TestVersionFiveFrameRefusedAtHeader: version 5 stamped a span on two
// clocks and numbered it; read as version 6 a span's sequence number and
// wall-time flag would be taken for its start.
func TestVersionFiveFrameRefusedAtHeader(t *testing.T) { refusedAtHeader(t, 5) }

func refusedAtHeader(t *testing.T, version byte) {
	out := newFrame()
	defer out.release()
	req := sampleRequests()["check"]
	out.request(&req)
	var sent bytes.Buffer
	if _, err := out.send(&sent); err != nil {
		t.Fatal(err)
	}
	frame := sent.Bytes()
	if frame[4] != 6 || protocolVersion != 6 {
		t.Fatalf("frames carry version %d (constant %d), want 6", frame[4], protocolVersion)
	}
	frame[4] = version
	// Only the header is there to read: a reader that wanted payload bytes
	// before deciding would report a short frame instead.
	_, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:frameHeaderSize])), 0)
	if !errors.Is(err, errProtocolVersion) {
		t.Errorf("version-%d header: err = %v, want %v", version, err, errProtocolVersion)
	}
}

// allocatedBy runs fn five times and reports the fewest bytes one run
// allocated — or 0 under the race detector, whose instrumentation allocates
// on its own account. TotalAlloc is process-wide, so a goroutine an earlier
// test left running may allocate inside a window; decoding is deterministic,
// so fn's own bytes land in every run and that noise does not.
func allocatedBy(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if raceEnabled {
		return 0
	}
	return least
}

// Decoding may allocate at most a constant multiple of its input. A
// request's widest element per encoded byte is a []string entry (16 bytes
// from a one-byte empty string). A response's is a retrieve list's object,
// from a one-byte masked record (an empty LOid through an empty mask): a
// 56-byte Object in a slab chunk the allocator rounds up by a sixth, and its
// 8-byte pointer. A wide mask costs no more: a record laid out by its mask
// holds a quarter of it, two bytes a value, so each 24-byte slot comes with
// half a byte at least, and a sparser record is laid out by what it holds.
const (
	requestAllocFactor  = 32
	responseAllocFactor = 88
)

// TestDecodeDoesNotTrustCounts: a count prefix claiming a billion elements
// in a dozen bytes is refused before anything is sized by it.
func TestDecodeDoesNotTrustCounts(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F} // uvarint 2^32-1
	var w frameBuf
	w.str(kindCheck)
	w.trace(&TraceContext{})
	w.i64(0)
	w.str("")
	hostileReq := append(w.b, huge...) // Items count
	if got := allocatedBy(func() {
		if _, err := decodeRequest(hostileReq); err == nil {
			t.Error("hostile item count accepted")
		}
	}); got > 4096 {
		t.Errorf("refusing a hostile count allocated %d bytes", got)
	}

	var rw frameBuf
	rw.str("")
	rw.str("DB1")
	hostileResp := append(rw.b, huge...) // Retrieve.Classes count
	if got := allocatedBy(func() {
		if _, err := decodeResponse(hostileResp); err == nil {
			t.Error("hostile class count accepted")
		}
	}); got > 4096 {
		t.Errorf("refusing a hostile count allocated %d bytes", got)
	}

	// A point reference is an index into a table only definitions grow, and
	// a definition is paid for in bytes: a huge reference sizes nothing.
	hostileRef := checkRequestWithRefs([]uint64{1, 1<<32 - 1})
	if got := allocatedBy(func() {
		if _, err := decodeRequest(hostileRef); err == nil {
			t.Error("hostile point reference accepted")
		}
	}); got > 4096 {
		t.Errorf("refusing a hostile point reference allocated %d bytes", got)
	}
	// The densest legitimate input: every item defines a point of its own.
	refs := make([]uint64, 20000)
	for i := range refs {
		refs[i] = uint64(i) + 1
	}
	allDefine := checkRequestWithRefs(refs)
	if got, limit := allocatedBy(func() {
		if _, err := decodeRequest(allDefine); err != nil {
			t.Errorf("one point per item: %v", err)
		}
	}), uint64(requestAllocFactor*len(allDefine)); got > limit {
		t.Errorf("decoding %d items with a point each allocated %d bytes (limit %d)", len(refs), got, limit)
	}

	// The densest legitimate retrieve list: empty records through no mask.
	empty := make([]*object.Object, 20000)
	for i := range empty {
		empty[i] = object.New("", "C", nil)
	}
	var dense frameBuf
	dense.response(&Response{Retrieve: federation.RetrieveReply{Classes: []federation.ClassObjects{{GlobalClass: "C", Objects: empty}}}})
	if got, limit := allocatedBy(func() {
		if _, err := decodeResponse(dense.b); err != nil {
			t.Errorf("20 000 empty records: %v", err)
		}
	}), uint64(responseAllocFactor*len(dense.b)); got > limit {
		t.Errorf("decoding 20 000 empty records allocated %d bytes (limit %d)", got, limit)
	}

	// Through a wide mask: empty records, which are laid out by the nothing
	// they hold, and records holding a quarter of the mask, the sparsest a
	// slot per name is given to, in one-byte strings.
	var wide []string
	for i := range 600 {
		wide = append(wide, fmt.Sprintf("a%03d", i))
	}
	quarter := make([]*object.Object, 200)
	for i := range quarter {
		attrs := map[string]object.Value{}
		for _, name := range wide[:150] {
			attrs[name] = object.Str("")
		}
		quarter[i] = object.New("", "C", attrs)
	}
	for what, objects := range map[string][]*object.Object{"2 000 empty records": empty[:2000], "200 quarter-full records": quarter} {
		var f frameBuf
		f.response(&Response{Retrieve: federation.RetrieveReply{Classes: []federation.ClassObjects{{GlobalClass: "C", Attrs: wide, Objects: objects}}}})
		if got, limit := allocatedBy(func() {
			if _, err := decodeResponse(f.b); err != nil {
				t.Errorf("%s through 600 names: %v", what, err)
			}
		}), uint64(responseAllocFactor*len(f.b)); got > limit {
			t.Errorf("decoding %s through 600 names allocated %d bytes (limit %d)", what, got, limit)
		}
	}

	// A count the input could hold, over elements that are garbage: the
	// list fails at its first element and the rest of it costs nothing.
	const n = 30000
	rw.uvarint(1) // one class
	rw.str("C")   // GlobalClass
	rw.uvarint(0) // no Attrs
	rw.uvarint(n) // Objects
	garbage := append(rw.b, bytes.Repeat([]byte{0xFF}, n*minMasked(0))...)
	if got, limit := allocatedBy(func() {
		if _, err := decodeResponse(garbage); err == nil {
			t.Error("garbage objects accepted")
		}
	}), uint64(responseAllocFactor*len(garbage)); got > limit {
		t.Errorf("failing on %d garbage objects allocated %d bytes (limit %d)", n, got, limit)
	}
}

func corpusEntry(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}

// TestFuzzCorpusIsCurrent pins the committed seed corpora — and with them
// the wire format — to the encoder: a codec change fails here until the
// seeds are regenerated on purpose (and protocolVersion reconsidered):
//
//	go test ./internal/remote -run TestFuzzCorpusIsCurrent -update-corpus
func TestFuzzCorpusIsCurrent(t *testing.T) {
	seeds := map[string][]byte{}
	for name, req := range sampleRequests() {
		seeds[filepath.Join("FuzzDecodeRequest", "seed-"+name)] = encodeRequest(t, req)
	}
	for name, resp := range sampleResponses() {
		seeds[filepath.Join("FuzzDecodeResponse", "seed-"+name)] = encodeResponse(t, resp)
	}
	for rel, b := range seeds {
		file, want := filepath.Join("testdata", "fuzz", rel), corpusEntry(b)
		if *updateCorpus {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%v (run with -update-corpus)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: seed no longer matches the encoder's output", file)
		}
	}
}

// fuzzDecode is the property both message fuzz targets check: decoding never
// panics, never allocates more than perByte times the input, and an
// input that decodes re-encodes to bytes that decode to the same message —
// checked as a fixed point of the bytes, which holds for NaN literals too.
func fuzzDecode[M any](t *testing.T, data []byte, perByte int, decode func([]byte) (M, error), encode func(testing.TB, M) []byte) {
	var (
		m   M
		err error
	)
	got := allocatedBy(func() { m, err = decode(data) })
	if limit := uint64(perByte*len(data) + 8192); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
	if err != nil {
		return
	}
	again := encode(t, m)
	m2, err := decode(again)
	if err != nil {
		t.Fatalf("re-encoded bytes do not decode: %v", err)
	}
	if third := encode(t, m2); !bytes.Equal(again, third) {
		t.Fatalf("encoding is not a fixed point:\n%x\n%x", again, third)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(encodeRequest(f, req))
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDecode(t, data, requestAllocFactor, decodeRequest, encodeRequest) })
}

func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range sampleResponses() {
		f.Add(encodeResponse(f, resp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, responseAllocFactor, decodeResponse, encodeResponse)
	})
}

// joinSeeds are FuzzMaterializeResponse's seeds, every site's retrieve reply
// to the school query as the sites build it, and two replies no site builds:
// two lists of one class under different masks (one naming an attribute the
// global class lacks, one holding a record too sparse to be laid out by its
// mask), and a list of a class the replica does not map.
func joinSeeds(tb testing.TB, fx *school.Fixture, b *query.Bound) []Response {
	var out []Response
	for _, id := range b.InvolvedSites() {
		site := federation.NewSite(fx.Databases[id], fx.Global, fx.Mapping)
		var reply federation.RetrieveReply
		onFabric(tb, func(p fabric.Proc) { reply = site.Retrieve(p, b) })
		out = append(out, Response{Retrieve: reply})
	}
	students := fx.Databases["DB1"].Extent("Student").All()
	out = append(out, Response{Retrieve: federation.RetrieveReply{Site: "DB1", Classes: []federation.ClassObjects{
		{GlobalClass: "Student", Attrs: []string{"address", "advisor", "name"}, Objects: append(students, object.New("s9", "Student", nil))},
		{GlobalClass: "Student", Attrs: []string{"advisor", "boss", "name"}, Objects: append([]*object.Object{
			object.New("s1", "Student", map[string]object.Value{"boss": object.Ref("t1"), "name": object.Str("Ann")})}, students...)},
	}}})
	stray := object.New("x1", "Stray", map[string]object.Value{"boss": object.Ref("s1"), "n": object.Int(1)})
	out = append(out, Response{Retrieve: federation.RetrieveReply{Site: "DB1", Classes: []federation.ClassObjects{
		{GlobalClass: "Stray", Attrs: []string{"boss", "n"}, Objects: []*object.Object{stray}},
	}}})
	return out
}

// FuzzMaterializeResponse: a retrieve reply the codec accepts is a peer's
// word, and the global site joins it. Materialize and EvaluateView over it,
// on a school-federation coordinator, never panic; they leave the
// mapping-table replica's classes and anti-entropy digests as they were; and
// every view object is laid out at its class's involved width (a class the
// query does not involve, at its first list's mask).
func FuzzMaterializeResponse(f *testing.F) {
	fx := school.New()
	b := query.MustBind(query.MustParse(school.Q1), fx.Global)
	co := federation.NewCoordinator("G", fx.Global, fx.Mapping)
	classes, digests := fx.Mapping.Classes(), antientropy.Digests(fx.Mapping)
	for _, resp := range joinSeeds(f, fx, b) {
		f.Add(encodeResponse(f, resp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeResponse(data)
		if err != nil {
			return
		}
		// Every object of the reply is its entity's view object or merged
		// into it: the entity's GOid, found as Materialize finds it, fetches
		// it from the view.
		width, entities := map[string]int{}, map[object.GOid]string{}
		for _, cls := range resp.Retrieve.Classes {
			if _, ok := width[cls.GlobalClass]; !ok {
				width[cls.GlobalClass] = len(cls.Attrs)
			}
			table := fx.Mapping.Lookup(cls.GlobalClass)
			if table == nil {
				table = gmap.NewTable(cls.GlobalClass)
			}
			for _, o := range cls.Objects {
				e, ok := table.At(resp.Retrieve.Site)[o.LOid]
				if !ok {
					e.GOid = table.Unbound(resp.Retrieve.Site, o.LOid)
				}
				entities[e.GOid] = cls.GlobalClass
			}
		}
		for _, in := range b.Involved() {
			width[in.Class] = len(in.Attrs)
		}
		var view *federation.View
		onFabric(t, func(p fabric.Proc) {
			view = co.Materialize(p, b, []federation.RetrieveReply{resp.Retrieve})
			co.EvaluateView(p, b, view)
		})
		for g, class := range entities {
			o, ok := view.Fetch(object.Ref(object.LOid(g)), cost.Discard)
			if !ok || len(o.Layout().Names()) != width[o.Class] {
				t.Errorf("entity %s of %s: view object %v (%v) is not laid out at its class's width %d", g, class, o, ok, width[class])
			}
		}
		if got := fx.Mapping.Classes(); !slices.Equal(got, classes) {
			t.Fatalf("the join changed the replica's classes from %v to %v", classes, got)
		}
		if got := antientropy.Digests(fx.Mapping); !maps.Equal(got, digests) {
			t.Fatalf("the join changed the replica's digests from %v to %v", digests, got)
		}
	})
}

// table2Site returns the DB1 site of the table2_scan federation with the
// generated query bound.
func table2Site(tb testing.TB) (*federation.Site, *query.Bound) {
	tb.Helper()
	w := table2Workload(tb)
	return federation.NewSite(w.Databases["DB1"], w.Global, w.Tables), w.Bound
}

// onFabric runs one federation step the way a server does.
func onFabric(tb testing.TB, fn func(p fabric.Proc)) {
	tb.Helper()
	if _, err := fabric.NewReal(fabric.DefaultRates()).Run("codec-bench", fn); err != nil {
		tb.Fatal(err)
	}
}

// benchMessages are the four shapes that carry the live traffic: the empty
// RPC, a site's local reply, a 300-item check request and the table2
// retrieve reply the centralized approach ships.
func benchMessages(tb testing.TB) (reqs map[string]Request, resps map[string]Response, retrieved int) {
	site, bound := table2Site(tb)
	var (
		retrieve federation.RetrieveReply
		local    federation.LocalResult
		checks   map[object.SiteID][]federation.CheckItem
	)
	onFabric(tb, func(p fabric.Proc) {
		retrieve = site.Retrieve(p, bound)
		local, checks = site.EvalLocalBasic(p, bound, nil)
	})
	var items []federation.CheckItem
	targets := make([]object.SiteID, 0, len(checks))
	for target := range checks {
		targets = append(targets, target)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for len(items) < 300 {
		for _, target := range targets {
			items = append(items, checks[target]...)
		}
	}
	for _, c := range retrieve.Classes {
		retrieved += len(c.Objects)
	}
	if retrieved < 1000 || len(local.Rows) == 0 {
		tb.Fatalf("table2 site too small to mean anything: %d objects retrieved, %d local rows", retrieved, len(local.Rows))
	}
	reqs = map[string]Request{
		"ping":      {Kind: kindPing, Trace: TraceContext{From: "G"}},
		"check_300": {Kind: kindCheck, Trace: sampleTrace, Items: items[:300]},
	}
	resps = map[string]Response{
		"local_reply":     {Local: LocalReply{Result: local}},
		"retrieve_table2": {Retrieve: retrieve},
	}
	return reqs, resps, retrieved
}

var (
	sinkRequest  Request
	sinkResponse Response
)

// BenchmarkWireCodec measures encode (a sealed frame into a pooled buffer,
// written to a discarding connection) and decode of the four messages.
func BenchmarkWireCodec(b *testing.B) {
	reqs, resps, _ := benchMessages(b)
	run := func(name string, size int, encode func(), decode func() error) {
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				encode()
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, name := range []string{"ping", "check_300"} {
		req := reqs[name]
		payload := encodeRequest(b, req)
		run(name, len(payload),
			func() { sendRequest(b, &req) },
			func() (err error) { sinkRequest, err = decodeRequest(payload); return err })
	}
	for _, name := range []string{"local_reply", "retrieve_table2"} {
		resp := resps[name]
		payload := encodeResponse(b, resp)
		run(name, len(payload),
			func() { sendResponse(b, &resp) },
			func() (err error) { sinkResponse, err = decodeResponse(payload); return err })
	}
}

func sendRequest(tb testing.TB, req *Request) {
	out := newFrame()
	out.request(req)
	_, err := out.send(io.Discard)
	out.release()
	if err != nil {
		tb.Fatal(err)
	}
}

func sendResponse(tb testing.TB, resp *Response) {
	out := newFrame()
	out.response(resp)
	_, err := out.send(io.Discard)
	out.release()
	if err != nil {
		tb.Fatal(err)
	}
}

// TestCodecAllocationCeilings gates the properties the codec exists for:
// encoding into a warm pooled buffer allocates nothing — the retrieve reply
// included, whose records are written through a mask from stored objects —
// and the table2 retrieve reply, the message the centralized approach lives
// on, names its class and attributes once per list: it encodes to at most
// 62 000 bytes and decodes at no more than 0.1 allocations per object, a
// share of the slabs its Objects, entries, LOids and reference and string
// payloads are cut from.
func TestCodecAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	reqs, resps, retrieved := benchMessages(t)
	for name, req := range reqs {
		sendRequest(t, &req) // warm the pool
		if n := testing.AllocsPerRun(20, func() { sendRequest(t, &req) }); n != 0 {
			t.Errorf("encode %s: %v allocs/op, want 0", name, n)
		}
	}
	for name, resp := range resps {
		sendResponse(t, &resp)
		if n := testing.AllocsPerRun(20, func() { sendResponse(t, &resp) }); n != 0 {
			t.Errorf("encode %s: %v allocs/op, want 0", name, n)
		}
	}
	payload := encodeResponse(t, resps["retrieve_table2"])
	// Measured: 55 910 bytes (named records, protocol version 3: 78 726).
	if len(payload) > 62_000 {
		t.Errorf("encode retrieve_table2: %d bytes for %d objects, want <= 62000", len(payload), retrieved)
	}
	n := testing.AllocsPerRun(5, func() {
		if _, err := decodeResponse(payload); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 0.04 (named records: 0.63).
	if perObject := n / float64(retrieved); perObject > 0.1 {
		t.Errorf("decode retrieve_table2: %.0f allocs for %d objects = %.2f per object, want <= 0.1", n, retrieved, perObject)
	} else {
		t.Logf("decode retrieve_table2: %.2f allocs per object (%d objects, %d bytes)", perObject, retrieved, len(payload))
	}
}

// TestPayloadLengthRefusesToWrap: a payload the u32 length field cannot hold
// is an error at the sender, never a wrapped length on the wire.
func TestPayloadLengthRefusesToWrap(t *testing.T) {
	if n, err := payloadLength(1<<32 - 1); err != nil || n != 1<<32-1 {
		t.Errorf("payloadLength(2^32-1) = %d, %v", n, err)
	}
	if strings.Contains(runtime.GOARCH, "64") {
		big := 1 << 32
		if _, err := payloadLength(big); err == nil {
			t.Error("a 2^32-byte payload was given a length")
		}
	}
}
