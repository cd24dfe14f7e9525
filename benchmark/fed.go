package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/workload"
)

// coordinatorID names the global processing site in every cluster and
// engine the benchmark builds.
const coordinatorID object.SiteID = "G"

// fedData is one workload's input: a federation, its query variants and the
// order in which the generators issue them. It is a pure function of
// (name, seed).
type fedData struct {
	Name      string
	Global    *schema.Global
	Databases map[object.SiteID]*store.Database
	Tables    *gmap.Tables
	Sites     []object.SiteID
	// Queries and Bounds are the variants as text (what the live
	// coordinator parses) and bound (what the in-process engine runs).
	Queries []string
	Bounds  []*query.Bound
	// Order is the seeded permutation in which variants are visited.
	Order []int
	// Refs are the reference answers, one per variant (see computeRefs).
	Refs []refAnswer
}

// schoolQueries are the Q1-family variants over the paper's school
// federation, copied from internal/bench/workloads.go.
var schoolQueries = []string{
	school.Q1,
	`select name from Student where age < 30 and address.city = "Taipei"`,
	`select name, advisor.name from Student where advisor.speciality = "database"`,
	`select name from Student where advisor.department.name = "CS" and sex = "F"`,
	`select name, address.city from Student where address.city = "Taipei"`,
}

// table2Params pins the Table 2 sample every table2 workload runs on, so the
// federation's shape never depends on the seed: three databases, a chain
// C1 -> C2 -> C3 with 2/1/1 predicates, fixed held predicate attributes per
// site, 550 objects per class per site.
func table2Params() workload.Params {
	class := func(nPreds int, held [][]int) workload.ClassParams {
		return workload.ClassParams{
			NPreds:    nPreds,
			NObjects:  []int{550, 550, 550},
			NullRatio: []float64{0.1, 0.1, 0.1},
			HeldPreds: held,
		}
	}
	return workload.Params{
		NDB: 3,
		Classes: []workload.ClassParams{
			class(2, [][]int{{0, 1}, {0}, {1}}),
			class(1, [][]int{{0}, {}, {0}}),
			class(1, [][]int{{}, {0}, {0}}),
		},
		ReplicaProb: 0.1,
		PadAttrs:    2,
	}
}

// table2DataSeed draws everything about the table2 federation that decides
// how much work a query is: placement, replicas, predicate values, nulls and
// references. With the run's own seed there, the check traffic of BL moved
// by a tenth either way from seed to seed, which is spread the program did
// not cause. The run's seed draws the values queries return (redrawValues),
// the order of the variants and the inserted objects.
const table2DataSeed = 1

// table2Scales multiply the generated query's first literal to derive the
// four variants, sweeping the root predicate's selectivity.
var table2Scales = []float64{1, 0.75, 0.5, 0.25}

// buildFed constructs the named federation ("school" or "table2") from the
// seed.
func buildFed(name string, seed int64) (*fedData, error) {
	rng := rand.New(rand.NewSource(seed))
	fd := &fedData{Name: name}
	switch name {
	case "school":
		fx := school.New()
		fd.Global, fd.Databases, fd.Tables = fx.Global, fx.Databases, fx.Mapping
		for _, text := range schoolQueries {
			q, err := query.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("school variant %q: %w", text, err)
			}
			b, err := query.Bind(q, fx.Global)
			if err != nil {
				return nil, fmt.Errorf("school variant %q: %w", text, err)
			}
			fd.Queries = append(fd.Queries, text)
			fd.Bounds = append(fd.Bounds, b)
		}
	case "table2":
		params := table2Params()
		w, err := workload.Generate(params, rand.New(rand.NewSource(table2DataSeed)))
		if err != nil {
			return nil, fmt.Errorf("generate table2: %w", err)
		}
		fd.Global, fd.Databases, fd.Tables = w.Global, w.Databases, w.Tables
		redrawValues(fd.Databases, params.PadAttrs, rng)
		for _, scale := range table2Scales {
			q := &query.Query{
				Range:   w.Query.Range,
				Targets: w.Query.Targets,
				Preds:   append([]query.Predicate(nil), w.Query.Preds...),
			}
			lit := int64(float64(q.Preds[0].Literal.Int64()) * scale)
			q.Preds[0].Literal = object.Int(lit)
			b, err := query.Bind(q, w.Global)
			if err != nil {
				return nil, fmt.Errorf("table2 variant x%v: %w", scale, err)
			}
			fd.Queries = append(fd.Queries, q.String())
			fd.Bounds = append(fd.Bounds, b)
		}
	default:
		return nil, fmt.Errorf("unknown federation %q", name)
	}
	fd.Sites = sortedSites(fd.Databases)
	fd.Order = rng.Perm(len(fd.Queries))
	return fd, nil
}

func sortedSites(dbs map[object.SiteID]*store.Database) []object.SiteID {
	sites := make([]object.SiteID, 0, len(dbs))
	for site := range dbs {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// redrawValues gives every generated entity new values, drawn from rng, for
// the attributes no predicate reads: the target t0 and the pad attributes.
// The key is the entity's identity, so isomeric objects keep agreeing. The
// objects are freshly generated, unindexed and of fixed wire size, which is
// why they can be rewritten in place.
func redrawValues(dbs map[object.SiteID]*store.Database, padAttrs int, rng *rand.Rand) {
	names := []string{"t0"}
	for j := 0; j < padAttrs; j++ {
		names = append(names, fmt.Sprintf("pad%d", j))
	}
	drawn := map[int64][]object.Value{}
	for _, site := range sortedSites(dbs) {
		db := dbs[site]
		for _, class := range db.Schema().ClassNames() {
			db.Extent(class).Scan(func(o *object.Object) bool {
				key := o.Attr("key").Int64()
				vals, ok := drawn[key]
				if !ok {
					vals = make([]object.Value, len(names))
					for i := range vals {
						vals[i] = object.Int(int64(rng.Intn(1000)))
					}
					drawn[key] = vals
				}
				for i, name := range names {
					o.Set(name, vals[i])
				}
				return true
			})
		}
	}
}

// op returns the i-th operation of a block with the given number of clients
// cycling through algs. With one client the strategy rotates on every query
// and the variant advances once per rotation, in the seeded order. With
// more clients the rotation advances once per round of clients, so the
// clients run the same strategy side by side and a strategy's latency does
// not depend on which other strategy it happened to overlap.
func (fd *fedData) op(i, clients int, algs []exec.Algorithm) (variant int, alg exec.Algorithm) {
	round := i / clients
	return fd.Order[(round/len(algs))%len(fd.Order)], algs[round%len(algs)]
}

// engine builds the in-process execution engine over the federation: the
// reference for answers and the no-transport floor for latencies.
func (fd *fedData) engine() (*exec.Engine, error) {
	return exec.New(exec.Config{
		Global:      fd.Global,
		Coordinator: coordinatorID,
		Databases:   fd.Databases,
		Tables:      fd.Tables,
	})
}

// refAnswer is one variant's reference answer: the certain and maybe GOids
// the centralized approach computes in process, sorted.
type refAnswer struct {
	Certain []object.GOid
	Maybe   []object.GOid
}

// computeRefs fills fd.Refs with CA's in-process answer to every variant.
func (fd *fedData) computeRefs() error {
	eng, err := fd.engine()
	if err != nil {
		return err
	}
	fd.Refs = make([]refAnswer, len(fd.Bounds))
	for v, b := range fd.Bounds {
		ans, _, err := eng.RunContext(context.Background(), fabric.NewReal(fabric.DefaultRates()), exec.CA, b)
		if err != nil {
			return fmt.Errorf("reference for variant %d: %w", v, err)
		}
		fd.Refs[v] = refAnswer{Certain: ans.CertainGOids(), Maybe: ans.MaybeGOids()}
	}
	return nil
}

// matches reports whether the answer equals the variant's reference. With
// inserts set, the cluster accepts inserts: every reference row must still
// be there and every extra row must be an inserted entity.
func (fd *fedData) matches(variant int, ans *federation.Answer, inserts bool) bool {
	if ans == nil || ans.Degraded || ans.Interrupted() {
		return false
	}
	ref := fd.Refs[variant]
	if !inserts {
		return equalGOids(ans.CertainGOids(), ref.Certain) && equalGOids(ans.MaybeGOids(), ref.Maybe)
	}
	return coversWithInserts(ans.CertainGOids(), ref.Certain) && coversWithInserts(ans.MaybeGOids(), ref.Maybe)
}

func equalGOids(a, b []object.GOid) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insertedGOid reports whether a GOid can only belong to an inserted
// object: the matcher names new entities g<class>:<n>, and a site that has
// stored an object whose binding has not arrived yet answers with a
// synthetic "!" identity. Generated and fixture GOids use neither form.
func insertedGOid(g object.GOid) bool {
	s := string(g)
	if strings.HasPrefix(s, "!") {
		return true
	}
	return strings.HasPrefix(s, "g") && strings.Contains(s, ":")
}

// coversWithInserts reports whether got (sorted) contains every GOid of
// want (sorted) and nothing else except inserted entities.
func coversWithInserts(got, want []object.GOid) bool {
	have := make(map[object.GOid]bool, len(got))
	for _, g := range got {
		have[g] = true
	}
	for _, g := range want {
		if !have[g] {
			return false
		}
		delete(have, g)
	}
	for g := range have {
		if !insertedGOid(g) {
			return false
		}
	}
	return true
}

// digest hashes everything the program receives: schemas, every stored
// object, every mapping-table binding, the variants and their order. Equal
// digests mean equal inputs.
func (fd *fedData) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "shape %s\n", fd.shape())
	for _, site := range fd.Sites {
		db := fd.Databases[site]
		for _, class := range db.Schema().ClassNames() {
			db.Extent(class).Scan(func(o *object.Object) bool {
				fmt.Fprintf(h, "%s %s\n", site, o)
				return true
			})
		}
	}
	for _, class := range fd.Tables.Classes() {
		t := fd.Tables.Table(class)
		for _, g := range t.GOids() {
			fmt.Fprintf(h, "%s %s %v\n", class, g, t.Locations(g))
		}
	}
	fmt.Fprintf(h, "order %v\n", fd.Order)
	return hex.EncodeToString(h.Sum(nil))
}

// shape renders what must not depend on the seed: sites, classes, the
// attributes each site holds, and the query variants.
func (fd *fedData) shape() string {
	var b strings.Builder
	for _, site := range fd.Sites {
		sch := fd.Databases[site].Schema()
		for _, name := range sch.ClassNames() {
			fmt.Fprintf(&b, "%s.%s%v;", site, name, sch.Class(name).AttrNames())
		}
	}
	for _, q := range fd.Queries {
		b.WriteString(q)
		b.WriteByte(';')
	}
	return b.String()
}

// objects counts the stored objects across all sites.
func (fd *fedData) objects() int {
	n := 0
	for _, db := range fd.Databases {
		n += db.Len()
	}
	return n
}

// inserter makes the objects the paced writer stores: new entities of the
// query's range class, round-robin over the sites holding it, with a fresh
// key, integer attributes drawn from the seed and references to existing
// local objects. The i-th object is the same on every run of a seed.
type inserter struct {
	root    string // global range class
	keyAttr string // its single key attribute, an integer
	sites   []object.SiteID
	at      map[object.SiteID]*insertSite
	rng     *rand.Rand
	made    int
}

type insertSite struct {
	class    *schema.Class
	template *object.Object
	refs     map[string][]object.LOid
}

func newInserter(fd *fedData, seed int64) (*inserter, error) {
	b := fd.Bounds[0]
	gc := fd.Global.Class(b.Query.Range)
	if len(gc.Key) != 1 {
		return nil, fmt.Errorf("inserter: class %s needs a single-attribute key", gc.Name)
	}
	in := &inserter{
		root:    gc.Name,
		keyAttr: gc.Key[0],
		sites:   b.RootSites(),
		at:      make(map[object.SiteID]*insertSite),
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed1e55)),
	}
	for _, site := range in.sites {
		db := fd.Databases[site]
		local := gc.Constituents[site]
		ext := db.Extent(local)
		if ext == nil || ext.Len() == 0 {
			return nil, fmt.Errorf("inserter: no %s objects at %s", local, site)
		}
		is := &insertSite{class: db.Schema().Class(local), template: ext.All()[0], refs: map[string][]object.LOid{}}
		for _, a := range is.class.Attrs {
			if a.Domain == "" || a.MultiValued {
				continue
			}
			if target := db.Extent(a.Domain); target != nil {
				for _, o := range target.All() {
					is.refs[a.Name] = append(is.refs[a.Name], o.LOid)
				}
			}
		}
		in.at[site] = is
	}
	return in, nil
}

// next makes the next object and names the site that stores it.
func (in *inserter) next() (object.SiteID, *object.Object) {
	i := in.made
	in.made++
	site := in.sites[i%len(in.sites)]
	is := in.at[site]
	attrs := make(map[string]object.Value, len(is.class.Attrs))
	for _, a := range is.class.Attrs {
		switch {
		case a.Name == in.keyAttr:
			attrs[a.Name] = object.Int(int64(insertKeyBase + i))
		case a.Domain != "":
			if pool := is.refs[a.Name]; len(pool) > 0 {
				attrs[a.Name] = object.Ref(pool[in.rng.Intn(len(pool))])
			}
		case a.Prim == object.KindInt:
			attrs[a.Name] = object.Int(int64(in.rng.Intn(1000)))
		default:
			if v := is.template.Attr(a.Name); !v.IsNull() {
				attrs[a.Name] = v
			}
		}
	}
	return site, object.New(object.LOid(fmt.Sprintf("n%d", i)), is.class.Name, attrs)
}
