package hetfed_test

import (
	"fmt"
	"testing"

	hetfed "github.com/hetfed/hetfed"
)

// buildTinyFederation assembles a two-site federation through the public
// API only.
func buildTinyFederation(t *testing.T) (*hetfed.Global, map[hetfed.SiteID]*hetfed.Database, *hetfed.MappingTables) {
	t.Helper()

	east := hetfed.NewSchema("East")
	cls, err := hetfed.NewClass("Item", []hetfed.Attribute{
		hetfed.Prim("sku", hetfed.KindInt),
		hetfed.Prim("name", hetfed.KindString),
		hetfed.Prim("stock", hetfed.KindInt),
	}, "sku")
	if err != nil {
		t.Fatal(err)
	}
	if err := east.AddClass(cls); err != nil {
		t.Fatal(err)
	}

	west := hetfed.NewSchema("West")
	cls2, err := hetfed.NewClass("Item", []hetfed.Attribute{
		hetfed.Prim("sku", hetfed.KindInt),
		hetfed.Prim("name", hetfed.KindString),
		hetfed.Prim("price", hetfed.KindFloat),
	}, "sku")
	if err != nil {
		t.Fatal(err)
	}
	if err := west.AddClass(cls2); err != nil {
		t.Fatal(err)
	}

	schemas := map[hetfed.SiteID]*hetfed.Schema{"East": east, "West": west}
	global, err := hetfed.Integrate(schemas, []hetfed.Correspondence{
		{GlobalClass: "Item", Members: []hetfed.Constituent{
			{Site: "East", Class: "Item"}, {Site: "West", Class: "Item"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	dbEast, err := hetfed.NewDatabase(east)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*hetfed.Object{
		hetfed.NewObject("e1", "Item", map[string]hetfed.Value{
			"sku": hetfed.Int(1), "name": hetfed.Str("anvil"), "stock": hetfed.Int(3)}),
		hetfed.NewObject("e2", "Item", map[string]hetfed.Value{
			"sku": hetfed.Int(2), "name": hetfed.Str("rope"), "stock": hetfed.Int(0)}),
	} {
		if err := dbEast.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	dbWest, err := hetfed.NewDatabase(west)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*hetfed.Object{
		hetfed.NewObject("w1", "Item", map[string]hetfed.Value{
			"sku": hetfed.Int(1), "name": hetfed.Str("anvil"), "price": hetfed.Float(99.5)}),
		hetfed.NewObject("w3", "Item", map[string]hetfed.Value{
			"sku": hetfed.Int(3), "name": hetfed.Str("tent"), "price": hetfed.Float(45)}),
	} {
		if err := dbWest.Insert(o); err != nil {
			t.Fatal(err)
		}
	}

	dbs := map[hetfed.SiteID]*hetfed.Database{"East": dbEast, "West": dbWest}
	tables, err := hetfed.Identify(global, dbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetfed.ValidateMapping(global, dbs, tables); err != nil {
		t.Fatal(err)
	}
	return global, dbs, tables
}

// TestPublicAPIWorkflow drives the whole public surface: build, integrate,
// identify, query under every strategy on both runtimes, plan, and round-
// trip through the JSON document format.
func TestPublicAPIWorkflow(t *testing.T) {
	global, dbs, tables := buildTinyFederation(t)

	// Missing attributes fall out of the attribute union.
	item := global.Class("Item")
	if got := item.MissingAttrs("East"); len(got) != 1 || got[0] != "price" {
		t.Errorf("missing at East = %v", got)
	}

	engine, err := hetfed.NewEngine(hetfed.EngineConfig{
		Global:      global,
		Coordinator: "HQ",
		Databases:   dbs,
		Tables:      tables,
		Signatures:  hetfed.BuildSignatures(dbs),
	})
	if err != nil {
		t.Fatal(err)
	}

	q, err := hetfed.ParseQuery(`select name from Item where stock > 0 and price < 100`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hetfed.BindQuery(q, global)
	if err != nil {
		t.Fatal(err)
	}

	for _, alg := range hetfed.AllAlgorithms() {
		// Real runtime.
		ans, _, err := engine.Run(hetfed.NewRealRuntime(hetfed.DefaultRates()), alg, b)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// anvil: stock 3 at East, price 99.5 at West -> certain.
		// rope: stock 0 -> out. tent: stock unknown, price ok -> maybe.
		if len(ans.Certain) != 1 || !ans.Certain[0].Targets[0].Equal(hetfed.Str("anvil")) {
			t.Errorf("%v certain = %v", alg, ans.Certain)
		}
		if len(ans.Maybe) != 1 || !ans.Maybe[0].Targets[0].Equal(hetfed.Str("tent")) {
			t.Errorf("%v maybe = %v", alg, ans.Maybe)
		}
		// Simulated runtime agrees and reports timing.
		ans2, m, err := engine.Run(hetfed.NewSimRuntime(hetfed.DefaultRates(), engine.Sites()), alg, b)
		if err != nil {
			t.Fatalf("%v sim: %v", alg, err)
		}
		if len(ans2.Certain) != 1 || len(ans2.Maybe) != 1 {
			t.Errorf("%v sim disagreed", alg)
		}
		if m.ResponseMicros <= 0 {
			t.Errorf("%v: no simulated time", alg)
		}
	}

	// The planner produces estimates for the paper's strategies and picks
	// the cheapest.
	sel := hetfed.NewSelector(hetfed.BuildCatalog(global, dbs, tables), "HQ", nil)
	ests := sel.Estimate(b)
	if len(ests) != 3 {
		t.Errorf("estimates = %v", ests)
	}
	if got := sel.Select(b); got == 0 {
		t.Error("planner chose nothing")
	}

	// JSON round trip preserves answers.
	schemas := map[hetfed.SiteID]*hetfed.Schema{
		"East": dbs["East"].Schema(), "West": dbs["West"].Schema(),
	}
	data, err := hetfed.ExportFederation(schemas, global, dbs)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := hetfed.ParseFederation(data)
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := hetfed.NewEngine(hetfed.EngineConfig{
		Global: fed.Global, Coordinator: "HQ", Databases: fed.Databases, Tables: fed.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := hetfed.BindQuery(q, fed.Global)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := engine2.Run(hetfed.NewRealRuntime(hetfed.DefaultRates()), hetfed.BL, b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Certain) != 1 || len(ans.Maybe) != 1 {
		t.Errorf("round-tripped federation answered %v / %v", ans.Certain, ans.Maybe)
	}
}

// Example reproduces the paper's worked example through the public API.
func Example() {
	fx := hetfed.SchoolExample()
	q, err := hetfed.ParseQuery(hetfed.SchoolQ1)
	if err != nil {
		panic(err)
	}
	b, err := hetfed.BindQuery(q, fx.Global)
	if err != nil {
		panic(err)
	}
	engine, err := hetfed.NewEngine(hetfed.EngineConfig{
		Global:      fx.Global,
		Coordinator: "G",
		Databases:   fx.Databases,
		Tables:      fx.Mapping,
	})
	if err != nil {
		panic(err)
	}
	ans, _, err := engine.Run(hetfed.NewRealRuntime(hetfed.DefaultRates()), hetfed.BL, b)
	if err != nil {
		panic(err)
	}
	for _, r := range ans.Certain {
		fmt.Println("certain:", r)
	}
	for _, r := range ans.Maybe {
		fmt.Println("maybe:  ", r)
	}
	// Output:
	// certain: gs4(Hedy, Kelly)
	// maybe:   gs2(Tony, Haley)
}
