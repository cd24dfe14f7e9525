package hetfed_test

import (
	"fmt"
	"testing"

	hetfed "github.com/hetfed/hetfed"
)

// assistanceShape is a federation built through the public API, one entity
// per class, and the verdict every strategy gives its one root entity.
type assistanceShape struct {
	name string
	fed  func(t *testing.T) *hetfed.FederationDoc
	// want maps a query to its root entity's verdict per strategy:
	// "certain", "maybe" or "eliminated".
	want map[string]map[hetfed.Algorithm]string
}

// buildShape integrates the sites' classes (every class of one name is one
// global class), stores the objects and identifies the entities by key k.
func buildShape(t *testing.T, classes map[hetfed.SiteID][]*hetfed.Class, objects map[hetfed.SiteID][]*hetfed.Object) *hetfed.FederationDoc {
	t.Helper()
	schemas := map[hetfed.SiteID]*hetfed.Schema{}
	members := map[string][]hetfed.Constituent{}
	var order []string
	for _, site := range []hetfed.SiteID{"S1", "S2", "S3"} {
		if classes[site] == nil {
			continue
		}
		s := hetfed.NewSchema(site)
		for _, c := range classes[site] {
			if err := s.AddClass(c); err != nil {
				t.Fatal(err)
			}
			if members[c.Name] == nil {
				order = append(order, c.Name)
			}
			members[c.Name] = append(members[c.Name], hetfed.Constituent{Site: site, Class: c.Name})
		}
		schemas[site] = s
	}
	var corrs []hetfed.Correspondence
	for _, name := range order {
		corrs = append(corrs, hetfed.Correspondence{GlobalClass: name, Members: members[name]})
	}
	global, err := hetfed.Integrate(schemas, corrs)
	if err != nil {
		t.Fatal(err)
	}
	dbs := map[hetfed.SiteID]*hetfed.Database{}
	for site, s := range schemas {
		if dbs[site], err = hetfed.NewDatabase(s); err != nil {
			t.Fatal(err)
		}
		for _, o := range objects[site] {
			if err := dbs[site].Insert(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	tables, err := hetfed.Identify(global, dbs)
	if err != nil {
		t.Fatal(err)
	}
	return &hetfed.FederationDoc{Schemas: schemas, Global: global, Databases: dbs, Tables: tables}
}

func keyedClass(name string, attrs ...hetfed.Attribute) *hetfed.Class {
	return hetfed.MustClass(name, append([]hetfed.Attribute{hetfed.Prim("k", hetfed.KindInt)}, attrs...), "k")
}

func keyedObject(id hetfed.LOid, class string, attrs map[string]hetfed.Value) *hetfed.Object {
	attrs["k"] = hetfed.Int(1)
	return hetfed.NewObject(id, class, attrs)
}

// everyAlgorithm gives CA one verdict and the four localized strategies
// another.
func everyAlgorithm(ca, localized string) map[hetfed.Algorithm]string {
	return map[hetfed.Algorithm]string{hetfed.CA: ca, hetfed.BL: localized, hetfed.PL: localized,
		hetfed.SBL: localized, hetfed.SPL: localized}
}

var assistanceShapes = []assistanceShape{
	{
		// The chain: R's path x.z.b leaves S1 at X, whose isomer at S2
		// holds z but whose target Z lacks b there; b = 5 is at S3. CA
		// merges all three sites. A localized strategy checks R's unsolved
		// item at X's isomer, one level of assistance: S2 finds b missing
		// and answers unknown, so the entity stays maybe.
		name: "chain",
		fed: func(t *testing.T) *hetfed.FederationDoc {
			return buildShape(t, map[hetfed.SiteID][]*hetfed.Class{
				"S1": {keyedClass("R", hetfed.Complex("x", "X")), keyedClass("X")},
				"S2": {keyedClass("X", hetfed.Complex("z", "Z")), keyedClass("Z")},
				"S3": {keyedClass("Z", hetfed.Prim("b", hetfed.KindInt))},
			}, map[hetfed.SiteID][]*hetfed.Object{
				"S1": {keyedObject("r1", "R", map[string]hetfed.Value{"x": hetfed.Ref("x1")}), keyedObject("x1", "X", map[string]hetfed.Value{})},
				"S2": {keyedObject("x1'", "X", map[string]hetfed.Value{"z": hetfed.Ref("z1'")}), keyedObject("z1'", "Z", map[string]hetfed.Value{})},
				"S3": {keyedObject("z1''", "Z", map[string]hetfed.Value{"b": hetfed.Int(5)})},
			})
		},
		want: map[string]map[hetfed.Algorithm]string{
			"select k from R where x.z.b = 5": everyAlgorithm("certain", "maybe"),
			"select k from R where x.z.b = 6": everyAlgorithm("eliminated", "maybe"),
		},
	},
	{
		// The crossing: R is stored at S1 and S2, and each of its two
		// two-hop paths resolves from the copy at one of them — x.a at S1,
		// y.d at S2 — so one level of assistance decides what CA decides.
		name: "crossing",
		fed: func(t *testing.T) *hetfed.FederationDoc {
			return buildShape(t, map[hetfed.SiteID][]*hetfed.Class{
				"S1": {keyedClass("R", hetfed.Complex("x", "X")), keyedClass("X", hetfed.Prim("a", hetfed.KindInt))},
				"S2": {keyedClass("R", hetfed.Complex("y", "Y")), keyedClass("Y", hetfed.Prim("d", hetfed.KindInt))},
			}, map[hetfed.SiteID][]*hetfed.Object{
				"S1": {keyedObject("r1", "R", map[string]hetfed.Value{"x": hetfed.Ref("x1")}), keyedObject("x1", "X", map[string]hetfed.Value{"a": hetfed.Int(1)})},
				"S2": {keyedObject("r1'", "R", map[string]hetfed.Value{"y": hetfed.Ref("y1'")}), keyedObject("y1'", "Y", map[string]hetfed.Value{"d": hetfed.Int(2)})},
			})
		},
		want: map[string]map[hetfed.Algorithm]string{
			"select k from R where x.a = 1 and y.d = 2": everyAlgorithm("certain", "certain"),
			"select k from R where x.a = 1 and y.d = 3": everyAlgorithm("eliminated", "eliminated"),
		},
	},
}

// verdict reads the one root entity's fate off an answer.
func verdict(ans *hetfed.Answer) string {
	switch {
	case len(ans.Certain)+len(ans.Maybe) > 1:
		return fmt.Sprintf("%d certain and %d maybe rows", len(ans.Certain), len(ans.Maybe))
	case len(ans.Certain) == 1:
		return "certain"
	case len(ans.Maybe) == 1:
		return "maybe"
	default:
		return "eliminated"
	}
}

// TestOneLevelOfAssistance pins what the localized strategies decide against
// CA, for every strategy, in process, on the discrete-event simulator and
// over TCP. Certification sends an unsolved item's check to its assistant
// objects and no further, while CA merges every site: on the chain, where
// the suffix resolves only two hops from any root copy, BL, PL, SBL and SPL
// leave maybe what CA certifies or eliminates; on the crossing, where each
// suffix resolves one hop from some root copy, all five agree. The test
// fails if either side moves: a widened rule would decide the chain, a
// narrowed one would leave the crossing maybe.
func TestOneLevelOfAssistance(t *testing.T) {
	for _, shape := range assistanceShapes {
		fed := shape.fed(t)
		engine, err := hetfed.NewEngine(hetfed.EngineConfig{Global: fed.Global, Coordinator: "G",
			Databases: fed.Databases, Tables: fed.Tables, Signatures: hetfed.BuildSignatures(fed.Databases)})
		if err != nil {
			t.Fatal(err)
		}
		coord := &hetfed.RemoteCoordinator{}
		cluster, err := hetfed.StartCluster(hetfed.ClusterConfig{Federation: fed, Coordinator: coord})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := cluster.Close(); err != nil {
				t.Error(err)
			}
		})
		for text, want := range shape.want {
			q, err := hetfed.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			b, err := hetfed.BindQuery(q, fed.Global)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range hetfed.AllAlgorithms() {
				runs := map[string]func() (*hetfed.Answer, error){
					"in process": func() (*hetfed.Answer, error) {
						ans, _, err := engine.Run(hetfed.NewRealRuntime(hetfed.DefaultRates()), alg, b)
						return ans, err
					},
					"DES": func() (*hetfed.Answer, error) {
						ans, _, err := engine.Run(hetfed.NewSimRuntime(hetfed.DefaultRates(), engine.Sites()), alg, b)
						return ans, err
					},
					"TCP": func() (*hetfed.Answer, error) {
						ans, _, err := coord.Query(text, alg)
						return ans, err
					},
				}
				for transport, run := range runs {
					ans, err := run()
					if err != nil {
						t.Fatalf("%s %s %v %s: %v", shape.name, text, alg, transport, err)
					}
					if got := verdict(ans); got != want[alg] {
						t.Errorf("%s: %s: %v %s says %s, want %s", shape.name, text, alg, transport, got, want[alg])
					}
				}
			}
		}
	}
}
