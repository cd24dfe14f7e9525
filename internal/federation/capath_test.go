package federation

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
)

// caPathGolden is what the centralized approach's three steps produced when
// every retrieved object was a projected copy and every decoded or merged
// object an allocation of its own (PR 15's commit), per fixture: per site the
// objects shipped, the reply's modeled size and the scan's charges; the view's
// size; Materialize's and EvaluateView's charges; the answer's split; and a
// hash over every view object and answer row.
var caPathGolden = []string{
	"school retrieve=DB1:8/528/720/8,DB2:7/560/816/7,DB3:5/336/336/5 view=14 roots=5 materialize=0/67 evaluate=0/54 certain=1 maybe=1 hash=ea5149e418e3",
	"teams retrieve=S1:5/304/336/5,S2:1/112/80/1 view=5 roots=2 materialize=0/16 evaluate=0/12 certain=2 maybe=0 hash=d88c95bca415",
	"draw1 retrieve=DB1:559/39376/84432/559,DB2:531/35728/78352/531,DB3:519/27776/69600/519 view=771 roots=193 materialize=0/5151 evaluate=0/1850 certain=3 maybe=7 hash=137196de3458",
	"draw2 retrieve=DB1:369/17680/44912/369,DB2:357/23744/50112/357,DB3:376/27232/55232/376 view=547 roots=188 materialize=0/3372 evaluate=0/1678 certain=6 maybe=27 hash=2e1bec1e811a",
	"draw3 retrieve=DB1:366/25760/53472/366,DB2:396/24928/54848/396,DB3:378/17520/46160/378 view=555 roots=186 materialize=0/3437 evaluate=0/3043 certain=31 maybe=91 hash=047c7173f694",
	"draw4 retrieve=DB1:382/20368/49168/382,DB2:379/27280/55888/379,DB3:361/19440/46672/361 view=562 roots=197 materialize=0/3389 evaluate=0/1244 certain=11 maybe=26 hash=98edbc15ebe3",
}

// TestCAPathMatchesParent: the copy-free centralized path — stored objects
// shipped beside a mask, replies decoded into slabs, a pre-sized outerjoin —
// yields the view, the answer and the cost-counter totals of the copying
// implementation it replaced, whether the replies reach Materialize as the
// sites built them or through the record encoding. All sites retrieve and
// encode at once, so the race detector watches the stored objects they share
// with each other and with the bound query.
func TestCAPathMatchesParent(t *testing.T) {
	fxs := sitePathFixtures(t)
	if len(fxs) != len(caPathGolden) {
		t.Fatalf("%d fixtures, %d golden lines", len(fxs), len(caPathGolden))
	}
	for i, fx := range fxs {
		for _, overWire := range []bool{false, true} {
			if got := fx.name + " " + caPathSummary(t, fx, overWire); got != caPathGolden[i] {
				t.Errorf("CA path changed (over the wire: %v):\n got %s\nwant %s", overWire, got, caPathGolden[i])
			}
		}
	}
}

// onReal runs one federation step the way a server does and returns what it
// charged.
func onReal(t testing.TB, fn func(fabric.Proc)) fabric.Metrics {
	t.Helper()
	m, err := fabric.NewReal(fabric.DefaultRates()).Run("capath", fn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// recordRoundTrip ships a reply the way the wire codec does — every object's
// masked record written through its class's mask, read back into slabs
// shared by the whole reply, every list Owned — without the frame around it.
func recordRoundTrip(t testing.TB, reply RetrieveReply) RetrieveReply {
	t.Helper()
	return encodeRecords(t, reply).decode(t)
}

// encodedReply is a reply's records: per class, every object's masked record
// through the class's mask, back to back.
type encodedReply struct {
	site    object.SiteID
	classes []encodedClass
}

type encodedClass struct {
	name    string
	attrs   []string
	class   string // the objects' local class, which a list names once
	records []byte
	n       int
}

func encodeRecords(t testing.TB, reply RetrieveReply) encodedReply {
	t.Helper()
	out := encodedReply{site: reply.Site}
	for _, cls := range reply.Classes {
		var (
			buf   []byte
			class string
		)
		mask := object.NewMask(cls.Attrs)
		for _, o := range cls.Objects {
			var err error
			if buf, err = object.AppendMasked(buf, o, mask); err != nil {
				t.Fatal(err)
			}
			class = o.Class
		}
		out.classes = append(out.classes, encodedClass{cls.GlobalClass, cls.Attrs, class, buf, len(cls.Objects)})
	}
	return out
}

// decode reads the records back into a reply of its own, as the wire codec
// does: objects cut from one slab, every list Owned.
func (er encodedReply) decode(t testing.TB) RetrieveReply {
	t.Helper()
	out := RetrieveReply{Site: er.site, Classes: make([]ClassObjects, len(er.classes))}
	var slab object.Slab
	for i, cls := range er.classes {
		out.Classes[i] = ClassObjects{GlobalClass: cls.name, Attrs: cls.attrs, Objects: make([]*object.Object, cls.n), Owned: true}
		buf, layout := cls.records, object.NewLayout(cls.attrs)
		for j := range out.Classes[i].Objects {
			var err error
			if out.Classes[i].Objects[j], buf, err = slab.DecodeMasked(buf, cls.class, layout); err != nil {
				t.Fatal(err)
			}
		}
		if len(buf) != 0 {
			t.Fatalf("%d bytes left over after %s's objects", len(buf), cls.name)
		}
	}
	return out
}

// decodeAll decodes every reply afresh.
func decodeAll(t testing.TB, encoded []encodedReply) []RetrieveReply {
	out := make([]RetrieveReply, len(encoded))
	for i, er := range encoded {
		out[i] = er.decode(t)
	}
	return out
}

// viewObjects lists every object of a view, sorted by GOid.
func viewObjects(v *View) []*object.Object {
	var out []*object.Object
	for _, vc := range v.classes {
		for _, o := range vc.byNumber {
			if o != nil {
				out = append(out, o)
			}
		}
		for _, o := range vc.unbound {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LOid < out[j].LOid })
	return out
}

func caPathSummary(t *testing.T, fx sitePathFixture, overWire bool) string {
	sites := fx.sites()
	ids := fx.bound.InvolvedSites()
	replies := make([]RetrieveReply, len(ids))
	scans := make([]fabric.Metrics, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scans[i] = onReal(t, func(p fabric.Proc) { replies[i] = sites[id].Retrieve(p, fx.bound) })
			if overWire {
				replies[i] = recordRoundTrip(t, replies[i])
			}
		}()
	}
	wg.Wait()

	var line strings.Builder
	line.WriteString("retrieve=")
	for i, id := range ids {
		n := 0
		for _, cls := range replies[i].Classes {
			n += len(cls.Objects)
		}
		if i > 0 {
			line.WriteByte(',')
		}
		fmt.Fprintf(&line, "%s:%d/%d/%d/%d", id, n, replies[i].WireSize(), scans[i].DiskBytes, scans[i].CPUOps)
	}

	co := NewCoordinator("G", fx.global, fx.tables)
	var (
		view *View
		ans  *Answer
	)
	mat := onReal(t, func(p fabric.Proc) { view = co.Materialize(p, fx.bound, replies) })
	ev := onReal(t, func(p fabric.Proc) { ans = co.EvaluateView(p, fx.bound, view) })

	detail := sha256.New()
	for _, o := range viewObjects(view) {
		fmt.Fprintf(detail, "object %s\n", o)
	}
	for _, root := range view.roots {
		fmt.Fprintf(detail, "root %s\n", root.LOid)
	}
	for _, rows := range [][]ResultRow{ans.Certain, ans.Maybe} {
		for _, row := range rows {
			fmt.Fprintf(detail, "row %s unknown=%v\n", row, row.Unknown)
		}
		fmt.Fprintln(detail, "--")
	}
	fmt.Fprintf(&line, " view=%d roots=%d materialize=%d/%d evaluate=%d/%d certain=%d maybe=%d hash=%x",
		view.Len(), len(view.roots), mat.DiskBytes, mat.CPUOps, ev.DiskBytes, ev.CPUOps,
		len(ans.Certain), len(ans.Maybe), detail.Sum(nil)[:6])
	return line.String()
}

// TestCAPathAllocationCeilings pins what the copy-free centralized path is
// for, on the benchmark's pinned Table 2 sample. Retrieve lists stored
// objects: its allocations are per class, none per object. A decoded reply's
// Objects, entries and LOids come from slabs: what remains per object is its
// reference strings (PR 15's commit: 3.6 per object). Materialize sizes its
// slots and its slab from the mapping tables' entity counts, so its bytes are
// pinned as well as its allocations (PR 15's commit: 1.4 per object).
func TestCAPathAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	retrieve := func(fx sitePathFixture) (allocs float64, objects int) {
		site := fx.sites()["DB1"]
		var reply RetrieveReply
		allocs = allocsOnFabric(t, func(p fabric.Proc) { reply = site.Retrieve(p, fx.bound) })
		for _, cls := range reply.Classes {
			objects += len(cls.Objects)
		}
		return allocs, objects
	}
	small, nSmall := retrieve(table2Fixture(t, 200, false))
	large, nLarge := retrieve(table2Fixture(t, 400, false))
	// Measured: 16 for either size — the fabric's run and sink, the reply's
	// class list and one pointer slice per class (PR 15's commit: 1 704 and
	// 3 455).
	if nLarge < 2*nSmall-10 || large != small || large > 20 {
		t.Errorf("Retrieve: %.0f allocs for %d objects, %.0f for %d; want none per object and at most 20",
			small, nSmall, large, nLarge)
	}

	fx := table2Fixture(t, 550, false)
	sites := fx.sites()
	var replies []RetrieveReply
	objects := 0
	for _, id := range fx.bound.InvolvedSites() {
		onReal(t, func(p fabric.Proc) { replies = append(replies, sites[id].Retrieve(p, fx.bound)) })
		for _, cls := range replies[len(replies)-1].Classes {
			objects += len(cls.Objects)
		}
	}
	if objects < 4000 {
		t.Fatalf("the table2 sample retrieves %d objects: too few to tell per-object from per-reply", objects)
	}

	// Decoding, measured at the record level (the frame's fields around the
	// records are a few dozen bytes): encode once, decode repeatedly.
	var encoded []encodedReply
	for _, reply := range replies {
		encoded = append(encoded, encodeRecords(t, reply))
	}
	decode := testing.AllocsPerRun(5, func() { decodeAll(t, encoded) })
	// Measured: 0.03 — a chunk every 64 objects, 256 entries or 2 KiB of
	// LOid and reference text. (Named records, which allocated each reference
	// string on its own: 0.63.)
	if per := decode / float64(objects); per > 0.1 {
		t.Errorf("decoding the replies: %.0f allocs for %d objects = %.2f per object, ceiling 0.1", decode, objects, per)
	} else {
		t.Logf("decoding the replies: %.2f allocs per object (%d objects)", per, objects)
	}

	co := NewCoordinator("G", fx.global, fx.tables)
	var view *View
	join := func(p fabric.Proc) { view = co.Materialize(p, fx.bound, replies) }
	materialize := allocsOnFabric(t, join)
	// Measured: 30 allocations and 550 KiB for 6 870 objects joined into 4 122
	// entities — the fabric's run, the sorted replies, a slot slice per class,
	// the slab's two chunks sized by entities, the roots as they grow. (Before
	// objects shared their class's layout, EXPERIMENTS.md E52: 35 and 939 KiB.
	// The earlier hashed join: 44 allocations and 1 612 KiB, its map and a
	// slab sized by constituents.)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		onReal(t, join)
	}
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	if materialize > 40 || kib > 600 {
		t.Errorf("Materialize: %.0f allocs and %.0f KiB for %d objects, ceilings 40 and 600", materialize, kib, objects)
	} else {
		t.Logf("Materialize: %.0f allocs, %.0f KiB (%d objects, %d in the view)", materialize, kib, objects, view.Len())
	}

	// Over decoded replies, each run over a fresh decode, since the join
	// consumes what it adopts. Measured: 28 allocations and 54 KiB — the slot
	// slices, the roots, and the slab chunks that give a filled adopted object
	// room for its mask; the first constituent of every entity is its view
	// object in place. (Before E52: 44 allocations and 211 KiB. The copying
	// join before adoption put every entity into the slab, as for store
	// replies: 37 allocations and 939 KiB.)
	var allocs, bytes uint64
	for i := 0; i < runs; i++ {
		decoded := decodeAll(t, encoded)
		runtime.ReadMemStats(&before)
		onReal(t, func(p fabric.Proc) { view = co.Materialize(p, fx.bound, decoded) })
		runtime.ReadMemStats(&after)
		allocs, bytes = allocs+after.Mallocs-before.Mallocs, bytes+after.TotalAlloc-before.TotalAlloc
	}
	perRun, kib := float64(allocs)/runs, float64(bytes)/runs/1024
	if perRun > 40 || kib > 64 {
		t.Errorf("Materialize over decoded replies: %.0f allocs and %.0f KiB for %d objects, ceilings 40 and 64", perRun, kib, objects)
	} else {
		t.Logf("Materialize over decoded replies: %.0f allocs, %.0f KiB (%d objects, %d in the view)", perRun, kib, objects, view.Len())
	}
}

// BenchmarkCoordinator times the global site's steps on the benchmark's
// pinned Table 2 sample: the centralized approach's two, over replies as the
// sites build them and over replies decoded afresh (outside the timer) for
// every run, since the join adopts what it decoded; evaluation over a view
// of either kind, the decoded one being what CA over TCP evaluates; and
// certification over BL's and PL's local results and check replies, built
// once.
func BenchmarkCoordinator(b *testing.B) {
	fx := table2Fixture(b, 550, false)
	sites := fx.sites()
	var (
		replies []RetrieveReply
		encoded []encodedReply
	)
	for _, id := range fx.bound.InvolvedSites() {
		onReal(b, func(p fabric.Proc) { replies = append(replies, sites[id].Retrieve(p, fx.bound)) })
		encoded = append(encoded, encodeRecords(b, replies[len(replies)-1]))
	}
	blResults, blReplies := localizedInputs(b, fx, "BL", "")
	plResults, plReplies := localizedInputs(b, fx, "PL", "")
	co := NewCoordinator("G", fx.global, fx.tables)
	var view, decodedView *View
	onReal(b, func(p fabric.Proc) { view = co.Materialize(p, fx.bound, replies) })
	onReal(b, func(p fabric.Proc) { decodedView = co.Materialize(p, fx.bound, decodeAll(b, encoded)) })
	var decoded []RetrieveReply
	for _, bench := range []struct {
		name  string
		setup func() // per run, outside the timer
		fn    func(fabric.Proc)
	}{
		{"Materialize", nil, func(p fabric.Proc) { co.Materialize(p, fx.bound, replies) }},
		{"MaterializeDecoded", func() { decoded = decodeAll(b, encoded) },
			func(p fabric.Proc) { co.Materialize(p, fx.bound, decoded) }},
		{"EvaluateView", nil, func(p fabric.Proc) { co.EvaluateView(p, fx.bound, view) }},
		{"EvaluateViewDecoded", nil, func(p fabric.Proc) { co.EvaluateView(p, fx.bound, decodedView) }},
		{"CertifyBL", nil, func(p fabric.Proc) { co.Certify(p, fx.bound, blResults, blReplies) }},
		{"CertifyPL", nil, func(p fabric.Proc) { co.Certify(p, fx.bound, plResults, plReplies) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bench.setup != nil {
					b.StopTimer()
					bench.setup()
					b.StartTimer()
				}
				onReal(b, bench.fn)
			}
		})
	}
}
