package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/tvl"
)

// The wire codec, protocol version 6: a hand-rolled binary encoding of Request
// and Response and everything they carry. A frame's payload (frame.go) is
// exactly one message.
//
// Primitives:
//
//	uvarint, varint   encoding/binary's variable-length integers (varint is
//	                  zigzag); every Go int travels as a varint
//	u8, u64           one byte; eight bytes little-endian
//	bool              u8, 0 or 1
//	str               len:uvarint bytes[len]
//	name              a str the decoder interns per frame: site, class,
//	                  attribute, algorithm and span names repeat thousands
//	                  of times in one reply and are allocated once
//	value             len:uvarint bytes[len], bytes = object.Value.AppendBinary
//	object            object.AppendObject — the named record the WAL logs:
//	                  class, LOid, then each attribute's name and value
//	masked            object.AppendMasked — a retrieve list's record:
//	                  LOid:str present:u8[⌈len(Attrs)/8⌉] value*, bit j
//	                  meaning Attrs[j] is present, values in Attrs order.
//	                  The list names the class and the attributes once; the
//	                  stored object is written through the mask, and the
//	                  decoder cuts a reply's objects, entries, LOids and
//	                  string and reference payloads from one slab. It refuses
//	                  Attrs not strictly increasing, a bit past len(Attrs), a
//	                  present null or zero-kind value, and an object count
//	                  the bytes left cannot hold at 1 + ⌈len(Attrs)/8⌉ each.
//	f64               u64 of the float's IEEE 754 bits
//	[]T               count:uvarint then count elements; the decoder checks
//	                  count against the bytes that remain before allocating,
//	                  and an empty list decodes to nil (gob did the same, so
//	                  no caller tells empty from nil)
//	opt T             u8 0 for nil, else u8 1 then T
//	point             ref:uvarint into the frame's point table, which both
//	                  sides build as they go: 0 is the nil point, 1..n is
//	                  the n-th point this frame has defined so far, and n+1
//	                  defines the next one, whose body follows in place:
//	                  ItemClass:name Suffix:Predicate SourceIdx:varint. A
//	                  frame so carries each distinct point once, however
//	                  many items of however many lists refer to it; the
//	                  decoded items share one *query.Point per entry. Any
//	                  other ref is malformed. The table has no count to
//	                  trust: every entry is paid for in bytes read.
//
// Messages, fields in wire order:
//
//	Request        Kind:str Trace DeadlineMicros:varint Query:str
//	               Items:[]CheckItem Store:opt object Bind:opt Delta
//	               Digests Repair:opt Repair
//	Response       Err:str Retrieve Local Check:CheckReply Spans:[]Span
//	               Digests Repair:opt RepairReply Suspect:[]name
//
//	Trace          QueryID:str Alg:str Span:uvarint From:str
//	CheckItem      Assistant:str ItemGOid:str Point:point
//	Predicate      Path:[]name Op:u8 Literal:value
//	Delta          Class:name GOid:str Site:name LOid:str
//	Digests        []{Class:name Count:uvarint Sum:[64]u64}, sorted by class
//	Repair         Class:name Buckets:[]varint Bindings:[]Binding
//	RepairReply    Bindings:[]Binding Applied:varint Conflicts:varint
//	Binding        GOid:str Site:name LOid:str
//	Retrieve       Site:name Classes:[]{GlobalClass:name Attrs:[]name
//	               Objects:[]masked}
//	Local          Result:{Site:name Rows:[]LocalRow SigVerdicts:[]Verdict}
//	               CheckReplies:[]CheckReply Unavailable:[]{Site:name Reason:str}
//	LocalRow       LOid:str GOid:str Targets:[]value Verdicts:[]u8
//	               Unsolved:[]UnsolvedItem
//	UnsolvedItem   ItemGOid:str Point:point SelfItem:bool Multi:bool
//	CheckReply     Site:name Verdicts:[]Verdict
//	Verdict        ItemGOid:str SourceIdx:varint SuffixLen:varint Verdict:u8
//	Span           ID:uvarint Parent:uvarint Query:name Algorithm:name
//	               Site:name Name:name Phases:name Detail:str
//	               Start:f64 End:f64 (span clock µs; End -1 while open)
//	               Counters:[]{name varint}, sorted by name
//
// Every field is always present, so a ping is ~20 bytes and a message has
// one encoding: maps are written in key order.

// frameBuf is a pooled buffer (frame.go) holding one frame on its way out
// or one payload on its way in. Its methods append a message's fields to b;
// the first failure sticks in err, and only an invalid object.Value can
// cause one. In the steady state a pooled buffer is already large enough and
// encoding allocates nothing.
type frameBuf struct {
	b   []byte
	err error
	// points is the outgoing frame's point table: the points written so
	// far, in order of first use.
	points []*query.Point
}

func (w *frameBuf) u8(v byte)        { w.b = append(w.b, v) }
func (w *frameBuf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *frameBuf) i64(v int64)      { w.b = binary.AppendVarint(w.b, v) }
func (w *frameBuf) int(v int)        { w.i64(int64(v)) }
func (w *frameBuf) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

func (w *frameBuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// opt writes an opt flag and reports whether the value follows.
func (w *frameBuf) opt(present bool) bool {
	w.bool(present)
	return present
}

func (w *frameBuf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// keep installs an append-style encoder's result, or records its failure
// (such encoders return nil on error, so w.b must not be overwritten).
func (w *frameBuf) keep(b []byte, err error) {
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.b = b
}

func (w *frameBuf) value(v object.Value)    { w.keep(object.AppendValue(w.b, v)) }
func (w *frameBuf) object(o *object.Object) { w.keep(object.AppendObject(w.b, o)) }

func (w *frameBuf) strs(ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

// list writes a counted list, handing each element to elem by pointer so
// the wide structs (a span, a check item) are not copied on the way.
func list[T any](w *frameBuf, s []T, elem func(*frameBuf, *T)) {
	w.uvarint(uint64(len(s)))
	for i := range s {
		elem(w, &s[i])
	}
}

// errMalformed is the root of every decode failure.
var errMalformed = errors.New("remote: malformed message")

// reader consumes a message from b. The first failure sticks in err and
// empties b, after which every read yields zero values, so decoders run
// straight through and check once at the end.
type reader struct {
	b      []byte
	err    error
	names  object.Interner
	points []*query.Point // the frame's point table, as defined so far
	slab   object.Slab    // a retrieve reply's objects: they live and die together
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errMalformed, what)
	}
	r.b = nil
}

func (r *reader) u8() byte {
	if len(r.b) < 1 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.fail("bool out of range")
	}
	return v == 1
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) i64() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int {
	v := r.i64()
	if int64(int(v)) != v {
		r.fail("varint overflows int")
		return 0
	}
	return int(v)
}

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// bytes splits one length-prefixed field off the input; the result aliases
// it.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("field longer than message")
		return nil
	}
	f := r.b[:n]
	r.b = r.b[n:]
	return f
}

func (r *reader) str() string  { return string(r.bytes()) }
func (r *reader) name() string { return r.names.Intern(r.bytes()) }

// count reads a list length and refuses one the remaining input could not
// hold at min bytes per element, so a few hostile bytes cannot size a make.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("count exceeds message")
		return 0
	}
	return int(n)
}

func (r *reader) value() object.Value {
	if r.err != nil {
		return object.Value{} // fail fast and free: lists keep iterating after a failure
	}
	v, rest, err := object.DecodeValue(r.b)
	if err != nil {
		r.fail(err.Error())
		return object.Value{}
	}
	r.b = rest
	return v
}

// object reads one named record into an object with allocations of its own,
// for an object that will outlive the message.
func (r *reader) object() *object.Object {
	if r.err != nil {
		return nil
	}
	o, rest, err := object.DecodeObject(r.b, &r.names)
	if err != nil {
		r.fail(err.Error())
		return nil
	}
	r.b = rest
	return o
}

// masked reads one masked record of class through mask, cut from the
// frame's slab.
func (r *reader) masked(class string, mask []string) *object.Object {
	if r.err != nil {
		return nil
	}
	o, rest, err := r.slab.DecodeMasked(r.b, class, mask)
	if err != nil {
		r.fail(err.Error())
		return nil
	}
	r.b = rest
	return o
}

func (r *reader) nameList() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.name()
	}
	return out
}

// listOf reads a counted list of elements at least min bytes each.
func listOf[T any](r *reader, min int, elem func(*reader, *T)) []T {
	n := r.count(min)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		if elem(r, &out[i]); r.err != nil {
			return nil
		}
	}
	return out
}

// sortedKeys returns m's keys in order: maps are written sorted, so a
// message has one encoding, and sites are visited sorted, so fan-outs, error
// lists and repair schedules are deterministic.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Minimum encoded sizes, the divisors count uses. Each is the element's
// fixed fields at their shortest; what matters is that none is zero.
const (
	minCheckItem    = 3
	minBinding      = 3
	minDigest       = 1 + 1 + 8*antientropy.Buckets
	minClassObjects = 3
	minVerdict      = 4
	minCheckReply   = 2
	minUnsolved     = 4
	minLocalRow     = 5
	minSiteFailure  = 2
	minSpan         = 8 + 16 + 1
	minCounter      = 2
)

func (w *frameBuf) trace(t *TraceContext) {
	w.str(t.QueryID)
	w.str(t.Alg)
	w.uvarint(t.Span)
	w.str(string(t.From))
}

func (r *reader) trace(t *TraceContext) {
	t.QueryID = r.str()
	t.Alg = r.str()
	t.Span = r.uvarint()
	t.From = object.SiteID(r.str())
}

func (w *frameBuf) predicate(p *query.Predicate) {
	w.strs(p.Path)
	w.u8(byte(p.Op))
	w.value(p.Literal)
}

func (r *reader) predicate(p *query.Predicate) {
	p.Path = r.nameList()
	p.Op = query.Op(r.u8())
	p.Literal = r.value()
}

// point writes a reference into the frame's point table, defining the point
// first if this is the frame's first use of it. Points are told apart by
// pointer: the items a site produces for one query share the bound query's.
func (w *frameBuf) point(pt *query.Point) {
	if pt == nil {
		w.uvarint(0)
		return
	}
	for i, have := range w.points {
		if have == pt {
			w.uvarint(uint64(i) + 1)
			return
		}
	}
	w.points = append(w.points, pt)
	w.uvarint(uint64(len(w.points)))
	w.str(pt.ItemClass)
	w.predicate(&pt.Suffix)
	w.int(pt.SourceIdx)
}

func (r *reader) point() *query.Point {
	ref := r.uvarint()
	defined := uint64(len(r.points))
	switch {
	case ref == 0:
		return nil
	case ref <= defined:
		return r.points[ref-1]
	case ref > defined+1:
		r.fail("point reference outside the frame's table")
		return nil
	}
	pt := &query.Point{ItemClass: r.name()}
	r.predicate(&pt.Suffix)
	pt.SourceIdx = r.int()
	if r.err != nil {
		return nil
	}
	r.points = append(r.points, pt)
	return pt
}

func (w *frameBuf) checkItem(it *federation.CheckItem) {
	w.str(string(it.Assistant))
	w.str(string(it.ItemGOid))
	w.point(it.Point)
}

func (r *reader) checkItem(it *federation.CheckItem) {
	it.Assistant = object.LOid(r.str())
	it.ItemGOid = object.GOid(r.str())
	it.Point = r.point()
}

func (w *frameBuf) checkItems(items *[]federation.CheckItem) { list(w, *items, (*frameBuf).checkItem) }
func (r *reader) checkItems(items *[]federation.CheckItem) {
	*items = listOf(r, minCheckItem, (*reader).checkItem)
}

func (w *frameBuf) binding(b *antientropy.Binding) {
	w.str(string(b.GOid))
	w.str(string(b.Site))
	w.str(string(b.LOid))
}

func (r *reader) binding(b *antientropy.Binding) {
	b.GOid = object.GOid(r.str())
	b.Site = object.SiteID(r.name())
	b.LOid = object.LOid(r.str())
}

// digests writes the map, empty in every message but a digest exchange's.
// The entries are written by a function of their own: a Digest is 520 bytes,
// and a frame that holds one forces a stack growth on a young goroutine —
// which every request and response encode would enter.
func (w *frameBuf) digests(m map[string]antientropy.Digest) {
	w.uvarint(uint64(len(m)))
	if len(m) > 0 {
		w.digestEntries(m)
	}
}

func (w *frameBuf) digestEntries(m map[string]antientropy.Digest) {
	for _, class := range sortedKeys(m) {
		d := m[class]
		w.str(class)
		w.uvarint(d.Count)
		for i := range d.Sum {
			w.u64(d.Sum[i])
		}
	}
}

func (r *reader) digests() map[string]antientropy.Digest {
	n := r.count(minDigest)
	if n == 0 {
		return nil
	}
	m := make(map[string]antientropy.Digest, n)
	for i := 0; i < n; i++ {
		class := r.name()
		var d antientropy.Digest
		d.Count = r.uvarint()
		for j := range d.Sum {
			d.Sum[j] = r.u64()
		}
		m[class] = d
	}
	return m
}

func (w *frameBuf) verdict(v *federation.CheckVerdict) {
	w.str(string(v.ItemGOid))
	w.int(v.SourceIdx)
	w.int(v.SuffixLen)
	w.u8(byte(v.Verdict))
}

func (r *reader) verdict(v *federation.CheckVerdict) {
	v.ItemGOid = object.GOid(r.str())
	v.SourceIdx = r.int()
	v.SuffixLen = r.int()
	v.Verdict = tvl.Truth(r.u8())
}

func (w *frameBuf) checkReply(cr *federation.CheckReply) {
	w.str(string(cr.Site))
	list(w, cr.Verdicts, (*frameBuf).verdict)
}

func (r *reader) checkReply(cr *federation.CheckReply) {
	cr.Site = object.SiteID(r.name())
	cr.Verdicts = listOf(r, minVerdict, (*reader).verdict)
}

// classObjects writes a retrieve list: the global class and the mask once,
// then each object's masked record. The decoded objects are of the global
// class, the one Materialize files them under.
func (w *frameBuf) classObjects(co *federation.ClassObjects) {
	w.str(co.GlobalClass)
	w.strs(co.Attrs)
	w.uvarint(uint64(len(co.Objects)))
	for _, o := range co.Objects {
		w.keep(object.AppendMasked(w.b, o, co.Attrs))
	}
}

func (r *reader) classObjects(co *federation.ClassObjects) {
	co.GlobalClass = r.name()
	co.Attrs = r.nameList()
	for i := 1; i < len(co.Attrs); i++ {
		if co.Attrs[i-1] >= co.Attrs[i] {
			r.fail("retrieve attributes out of order")
		}
	}
	co.Owned = true // cut from this frame's slab, held by nobody else
	if n := r.count(minMasked(len(co.Attrs))); n > 0 {
		co.Objects = make([]*object.Object, n)
		for i := range co.Objects {
			co.Objects[i] = r.masked(co.GlobalClass, co.Attrs)
		}
	}
}

// minMasked is the least encoded size of a masked record through a mask of
// width names: an empty LOid and the presence bitmap.
func minMasked(width int) int { return 1 + (width+7)/8 }

func (w *frameBuf) unsolved(u *federation.UnsolvedItem) {
	w.str(string(u.ItemGOid))
	w.point(u.Point)
	w.bool(u.SelfItem)
	w.bool(u.Multi)
}

func (r *reader) unsolved(u *federation.UnsolvedItem) {
	u.ItemGOid = object.GOid(r.str())
	u.Point = r.point()
	u.SelfItem = r.bool()
	u.Multi = r.bool()
}

func (w *frameBuf) localRow(row *federation.LocalRow) {
	w.str(string(row.LOid))
	w.str(string(row.GOid))
	w.uvarint(uint64(len(row.Targets)))
	for _, v := range row.Targets {
		w.value(v)
	}
	w.uvarint(uint64(len(row.Verdicts)))
	for _, v := range row.Verdicts {
		w.u8(byte(v))
	}
	list(w, row.Unsolved, (*frameBuf).unsolved)
}

func (r *reader) localRow(row *federation.LocalRow) {
	row.LOid = object.LOid(r.str())
	row.GOid = object.GOid(r.str())
	if n := r.count(2); n > 0 {
		row.Targets = make([]object.Value, n)
		for i := range row.Targets {
			row.Targets[i] = r.value()
		}
	}
	if n := r.count(1); n > 0 {
		row.Verdicts = make([]tvl.Truth, n)
		for i := range row.Verdicts {
			row.Verdicts[i] = tvl.Truth(r.u8())
		}
	}
	row.Unsolved = listOf(r, minUnsolved, (*reader).unsolved)
}

func (w *frameBuf) siteFailure(f *federation.SiteFailure) {
	w.str(string(f.Site))
	w.str(f.Reason)
}

func (r *reader) siteFailure(f *federation.SiteFailure) {
	f.Site = object.SiteID(r.name())
	f.Reason = r.str()
}

func (w *frameBuf) span(s *trace.Span) {
	w.uvarint(uint64(s.ID))
	w.uvarint(uint64(s.Parent))
	w.str(s.Query)
	w.str(s.Algorithm)
	w.str(string(s.Site))
	w.str(s.Name)
	w.str(s.Phases)
	w.str(s.Detail)
	w.u64(math.Float64bits(s.Start))
	w.u64(math.Float64bits(s.End))
	w.uvarint(uint64(len(s.Counters)))
	for _, name := range sortedKeys(s.Counters) {
		w.str(name)
		w.i64(s.Counters[name])
	}
}

func (r *reader) span(s *trace.Span) {
	s.ID = trace.SpanID(r.uvarint())
	s.Parent = trace.SpanID(r.uvarint())
	s.Query = r.name()
	s.Algorithm = r.name()
	s.Site = object.SiteID(r.name())
	s.Name = r.name()
	s.Phases = r.name()
	s.Detail = r.str()
	s.Start = math.Float64frombits(r.u64())
	s.End = math.Float64frombits(r.u64())
	if n := r.count(minCounter); n > 0 {
		s.Counters = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			s.Counters[r.name()] = r.i64()
		}
	}
}

// request appends req's encoding.
func (w *frameBuf) request(req *Request) {
	w.str(req.Kind)
	w.trace(&req.Trace)
	w.i64(req.DeadlineMicros)
	w.str(req.Query)
	w.checkItems(&req.Items)
	if w.opt(req.Store != nil) {
		w.object(req.Store)
	}
	if w.opt(req.Bind != nil) {
		w.str(req.Bind.Class)
		w.str(string(req.Bind.GOid))
		w.str(string(req.Bind.Site))
		w.str(string(req.Bind.LOid))
	}
	w.digests(req.Digests)
	if w.opt(req.Repair != nil) {
		w.str(req.Repair.Class)
		w.uvarint(uint64(len(req.Repair.Buckets)))
		for _, b := range req.Repair.Buckets {
			w.int(b)
		}
		list(w, req.Repair.Bindings, (*frameBuf).binding)
	}
}

// decodeRequest decodes one request filling b exactly. The result shares
// no memory with b.
func decodeRequest(b []byte) (Request, error) {
	r := reader{b: b}
	var req Request
	req.Kind = r.str()
	r.trace(&req.Trace)
	req.DeadlineMicros = r.i64()
	req.Query = r.str()
	r.checkItems(&req.Items)
	if r.bool() {
		req.Store = r.object()
	}
	if r.bool() {
		req.Bind = &antientropy.Delta{
			Class: r.name(),
			GOid:  object.GOid(r.str()),
			Site:  object.SiteID(r.name()),
			LOid:  object.LOid(r.str()),
		}
	}
	req.Digests = r.digests()
	if r.bool() {
		rp := &antientropy.Repair{Class: r.name()}
		if n := r.count(1); n > 0 {
			rp.Buckets = make([]int, n)
			for i := range rp.Buckets {
				rp.Buckets[i] = r.int()
			}
		}
		rp.Bindings = listOf(&r, minBinding, (*reader).binding)
		req.Repair = rp
	}
	if err := r.finish(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// response appends resp's encoding.
func (w *frameBuf) response(resp *Response) {
	w.str(resp.Err)

	w.str(string(resp.Retrieve.Site))
	list(w, resp.Retrieve.Classes, (*frameBuf).classObjects)

	res := &resp.Local.Result
	w.str(string(res.Site))
	list(w, res.Rows, (*frameBuf).localRow)
	list(w, res.SigVerdicts, (*frameBuf).verdict)
	list(w, resp.Local.CheckReplies, (*frameBuf).checkReply)
	list(w, resp.Local.Unavailable, (*frameBuf).siteFailure)

	w.checkReply(&resp.Check)
	list(w, resp.Spans, (*frameBuf).span)
	w.digests(resp.Digests)
	if w.opt(resp.Repair != nil) {
		list(w, resp.Repair.Bindings, (*frameBuf).binding)
		w.int(resp.Repair.Applied)
		w.int(resp.Repair.Conflicts)
	}
	w.strs(resp.Suspect)
}

// decodeResponse decodes one response filling b exactly. The result shares
// no memory with b.
func decodeResponse(b []byte) (Response, error) {
	r := reader{b: b}
	var resp Response
	resp.Err = r.str()

	resp.Retrieve.Site = object.SiteID(r.name())
	resp.Retrieve.Classes = listOf(&r, minClassObjects, (*reader).classObjects)

	res := &resp.Local.Result
	res.Site = object.SiteID(r.name())
	res.Rows = listOf(&r, minLocalRow, (*reader).localRow)
	res.SigVerdicts = listOf(&r, minVerdict, (*reader).verdict)
	resp.Local.CheckReplies = listOf(&r, minCheckReply, (*reader).checkReply)
	resp.Local.Unavailable = listOf(&r, minSiteFailure, (*reader).siteFailure)

	r.checkReply(&resp.Check)
	resp.Spans = listOf(&r, minSpan, (*reader).span)
	resp.Digests = r.digests()
	if r.bool() {
		rp := &antientropy.RepairReply{Bindings: listOf(&r, minBinding, (*reader).binding)}
		rp.Applied = r.int()
		rp.Conflicts = r.int()
		resp.Repair = rp
	}
	resp.Suspect = r.nameList()
	if err := r.finish(); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// finish reports the sticky error, or bytes left over after the message.
func (r *reader) finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	return r.err
}
